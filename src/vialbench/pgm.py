"""Binary PGM (P5, maxval 255) read/write for debug dumps and CLI input."""

from __future__ import annotations

import numpy as np


def write_pgm(path, image: np.ndarray) -> None:
    """Write an 8-bit grayscale image as ``P5\\n<w> <h>\\n255\\n`` plus raw bytes."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    if img.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {img.dtype}")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM written by write_pgm (comments tolerated).

    Malformed input raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (missing P5 magic)")
    fields: list[int] = []
    pos = 2
    while True:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            # an unterminated comment runs to the end: truncated header
            pos = data.find(b"\n", pos) + 1 or len(data)
        elif len(fields) == 3:
            break
        elif ch.isspace():
            pos += 1
        elif ch.isdigit() and pos > 2:  # a field never touches the magic
            end = pos
            while data[end:end + 1].isdigit():
                end += 1
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise ValueError(f"{path}: bad PGM header byte {ch!r}")
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: unsupported PGM maxval {maxval}")
    if not ch.isspace():  # exactly one whitespace byte ends the header
        raise ValueError(f"{path}: bad PGM header byte {ch!r}")
    pos += 1
    raster = data[pos:pos + w * h]
    if len(raster) != w * h:
        raise ValueError(f"{path}: truncated PGM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()

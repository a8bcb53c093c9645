"""Candidate crops, training-set synthesis, and slot selection.

Glues the circle detector to the classifier: crops are cut around every
circle candidate, scored by the network, and the scored list is filtered to
pick a vacant slot to aim at. Training data is synthesized from the simulator
itself, with labels derived from the ground-truth slot positions projected
through the same (mis)calibrated camera that rendered each frame, so label
pixel positions agree with what the detector sees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import (KEY_TRAIN, Pose3, RngStream, WorkspaceConfig,
                    refined_camera_z)
from ..geometry import world_to_pixel
from ..simworld import render_topdown, reset_trial
from .cnn import CnnWeights, forward, train_cnn
from .hough import Candidate, cht_params_for, detect_circles


class Label(enum.IntEnum):
    NOT_IN_RACK = 0
    IN_RACK_OCCUPIED = 1
    IN_RACK_VACANT = 2


class NoValidSlotError(RuntimeError):
    """No candidate passed the rack/vacancy gates."""


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: Candidate
    p_rack: float
    p_occupied: float


CROP_MARGIN = 1.1


def extract_crops(image: np.ndarray, u, v, r, crop_size: int) -> np.ndarray:
    """Bilinear crops of side 2*CROP_MARGIN*r around each (u, v), resampled to
    crop_size and scaled to [0, 1]: shape (n, crop_size, crop_size) float32.

    ``u``, ``v`` and ``r`` are sequences of equal length n. Samples outside
    the image replicate the border pixel. A crop's sample columns depend
    only on its column and its sample rows only on its row, so they are
    floored and clipped once per crop side; each bilinear corner is then
    read for all crops at once.
    """
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 2:
        raise ValueError(f"expected 2-D image, got shape {img.shape}")
    u, v, r = (np.asarray(a, dtype=float).reshape(-1, 1) for a in (u, v, r))
    if not u.shape == v.shape == r.shape:
        raise ValueError(f"u, v and r differ in length: "
                         f"{u.shape[0]}, {v.shape[0]}, {r.shape[0]}")
    h, w = img.shape
    half = CROP_MARGIN * r
    t = (np.arange(crop_size) + 0.5) / crop_size * 2.0 - 1.0
    uu = u + t * half  # (n, crop_size): sample columns of each crop
    vv = v + t * half  # (n, crop_size): sample rows of each crop
    u0 = np.floor(uu).astype(int)
    v0 = np.floor(vv).astype(int)
    du = (uu - u0).astype(np.float32)[:, None, :]
    dv = (vv - v0).astype(np.float32)[:, :, None]
    u0c = np.clip(u0, 0, w - 1)[:, None, :]
    u1c = np.clip(u0 + 1, 0, w - 1)[:, None, :]
    v0c = np.clip(v0, 0, h - 1)[:, :, None]
    v1c = np.clip(v0 + 1, 0, h - 1)[:, :, None]
    out = (img[v0c, u0c] * (1 - du) * (1 - dv)
           + img[v0c, u1c] * du * (1 - dv)
           + img[v1c, u0c] * (1 - du) * dv
           + img[v1c, u1c] * du * dv)
    return out / np.float32(255.0)


def _crops_of(image: np.ndarray, candidates: list[Candidate],
              crop_size: int) -> np.ndarray:
    return extract_crops(image, [c.u for c in candidates],
                         [c.v for c in candidates], [c.r for c in candidates],
                         crop_size)


def label_candidate(u: float, v: float, slot_u: np.ndarray, slot_v: np.ndarray,
                    occupied: np.ndarray, pitch_px: float) -> Label:
    """Ground-truth class for a detection: the nearest slot center within half
    a pitch decides in-rack membership and occupancy; anything farther out is
    clutter."""
    d2 = (slot_u - u) ** 2 + (slot_v - v) ** 2
    j = int(np.argmin(d2))
    if d2[j] <= (0.5 * pitch_px) ** 2:
        return Label.IN_RACK_OCCUPIED if occupied[j] else Label.IN_RACK_VACANT
    return Label.NOT_IN_RACK


def generate_labeled_dataset(config: WorkspaceConfig, stream: RngStream):
    """Render ``cnn.train_scenes`` scenes, detect circles, and label each
    candidate crop.

    Every fourth scene is imaged close-up over a random slot so the training
    distribution covers both camera heights the runtime uses. Returns
    ``(crops, labels)`` with crops of shape (n, 1, cs, cs) float32.
    """
    cs = config.cnn.crop_size
    nominal_params = cht_params_for(config, config.camera.z)
    refined_params = cht_params_for(config, refined_camera_z(config))
    crops: list[np.ndarray] = []
    labels: list[int] = []
    for i in range(config.cnn.train_scenes):
        scene = reset_trial(config, stream.child(i))
        centers = scene.slots
        if i % 4 == 3:
            pick = centers[int(scene.rng.integers(len(centers)))]
            jitter = scene.rng.normal(0.0, 1.0e-3, size=2)
            pose = Pose3(x=pick[0] + jitter[0], y=pick[1] + jitter[1],
                         z=refined_camera_z(config))
            params = refined_params
        else:
            pose = config.camera.pose()
            params = nominal_params
        image, eff = render_topdown(scene, pose)
        cands = detect_circles(image, params)
        if not cands:
            continue
        su, sv = world_to_pixel(centers[:, 0], centers[:, 1], config.camera,
                                eff, config.rack.height)
        pitch_px = config.rack.pitch * config.camera.fx / (eff.z - config.rack.height)
        occ = scene.occupancy.ravel()
        labels += [int(label_candidate(c.u, c.v, su, sv, occ, pitch_px))
                   for c in cands]
        crops.append(_crops_of(image, cands, cs))
    if not crops:
        raise RuntimeError("dataset generation produced no candidates")
    return np.concatenate(crops)[:, None, :, :], np.asarray(labels, dtype=np.int64)


def dump_dataset(out_dir, crops: np.ndarray, labels: np.ndarray):
    """Write one PGM per crop plus ``index.csv`` of "path,label" lines.

    Labels are stored as their integer class values; paths are relative to
    ``out_dir``. Returns the index path.
    """
    from ..pgm import write_pgm

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (crop, label) in enumerate(zip(crops, labels)):
        name = f"crop_{i:05d}.pgm"
        img = np.clip(np.rint(crop[0] * 255.0), 0, 255).astype(np.uint8)
        write_pgm(out / name, img)
        lines.append(f"{name},{int(label)}")
    index = out / "index.csv"
    index.write_text("\n".join(lines) + "\n", encoding="ascii")
    return index


def train_discriminator(config: WorkspaceConfig, dump_dir=None):
    """Synthesize a dataset and train the classifier from the config seed.

    Returns ``(weights, history, n_examples)``. Reproducible: the dataset and
    the optimizer both derive from the reserved training RNG stream. When
    ``dump_dir`` is given the training set is also written there as PGM crops
    with an index file.
    """
    stream = RngStream(config.seed).child(KEY_TRAIN)
    crops, labels = generate_labeled_dataset(config, stream.child(0))
    if dump_dir is not None:
        dump_dataset(dump_dir, crops, labels)
    weights, history = train_cnn(crops, labels, config.cnn,
                                 stream.child(1).generator())
    return weights, history, int(len(labels))


def score_candidates(image: np.ndarray, candidates: list[Candidate],
                     weights: CnnWeights, crop_size: int) -> list[ScoredCandidate]:
    if not candidates:
        return []
    batch = _crops_of(image, candidates, crop_size)[:, None, :, :]
    probs, _ = forward(batch, weights)
    return [ScoredCandidate(candidate=c, p_rack=float(p[0]), p_occupied=float(p[1]))
            for c, p in zip(candidates, probs)]


def accepted_rack_candidates(scored: list[ScoredCandidate],
                             theta_rack: float) -> list[ScoredCandidate]:
    return [s for s in scored if s.p_rack >= theta_rack]


def select_target(scored: list[ScoredCandidate], theta_rack: float,
                  theta_occ: float, tie_eps: float, gen: np.random.Generator,
                  ref_uv: tuple[float, float] | None = None) -> ScoredCandidate:
    """Pick the vacant slot to aim at.

    With no ``ref_uv`` it takes the most confidently vacant candidate; with
    one, the vacant candidate closest to ``ref_uv`` (the close-up pass, where
    the intended slot sits near the image center). Score ties within
    ``tie_eps`` are broken by a seeded draw so runs stay reproducible.
    """
    vacant = [s for s in accepted_rack_candidates(scored, theta_rack)
              if s.p_occupied <= theta_occ]
    if not vacant:
        raise NoValidSlotError("no vacant rack slot among candidates")
    if ref_uv is None:
        scores = [1.0 - s.p_occupied for s in vacant]
    else:
        scores = [-np.hypot(s.candidate.u - ref_uv[0], s.candidate.v - ref_uv[1])
                  for s in vacant]
    best = max(scores)
    ties = [s for s, sc in zip(vacant, scores) if best - sc <= tie_eps]
    if len(ties) == 1:
        return ties[0]
    return ties[int(gen.integers(len(ties)))]

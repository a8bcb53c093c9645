"""Shared domain types, flat key/value configuration, and splittable RNG streams."""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

import numpy as np


PACKAGE_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Raised for unparseable or out-of-range configuration input."""


# Reserved leading keys for derived RNG streams, so trial streams can never
# collide with the streams used for rig construction, training, or calibration.
KEY_TRIAL = 0
KEY_RIG = 1
KEY_TRAIN = 2
KEY_CALIB = 3

# The largest frame sides and crop side a config may ask for, in pixels.
# Frames, Hough slices and crops are allocated at these sizes, so a typo
# such as ``tactile.width = 100000`` is refused before anything is allocated.
MAX_CAMERA_SIDE = 4096
MAX_TACTILE_SIDE = 1024
MAX_CROP_SIZE = 128


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream addressed by (seed, split path).

    Equal seed and path always reproduce the identical sample sequence; any
    change to either yields an independent stream.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *keys: int) -> "RngStream":
        """Derive a sub-stream; children with different keys are independent."""
        return RngStream(self.seed, self.path + tuple(int(k) for k in keys))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream (restarts the sequence each call)."""
        ss = np.random.SeedSequence((int(self.seed),) + self.path)
        return np.random.Generator(np.random.PCG64(ss))


def split_rng(master: RngStream, trial_index: int) -> RngStream:
    """Independent per-trial stream, a pure function of (seed, trial_index)."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    return master.child(KEY_TRIAL, trial_index)


@dataclass(frozen=True)
class Pose3:
    """Nadir (straight-down) camera position in the robot base frame, meters."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class CameraConfig:
    """The nadir camera model: focal lengths and principal point in pixels,
    image size, overview position in meters, close-up height factor."""

    fx: float = 600.0
    fy: float = 600.0
    cx: float = 256.0
    cy: float = 192.0
    width: int = 512
    height: int = 384
    x: float = 0.40
    y: float = 0.0
    z: float = 0.50
    refine_factor: float = 0.5

    def pose(self) -> Pose3:
        return Pose3(self.x, self.y, self.z)


@dataclass(frozen=True)
class RackSpec:
    """Slot grid geometry; the rack top sits at z = height above the table."""

    rows: int = 4
    cols: int = 6
    pitch: float = 0.020
    slot_radius: float = 0.0085
    height: float = 0.030
    footprint_w: float = 0.124
    footprint_h: float = 0.084


@dataclass(frozen=True)
class VialSpec:
    radius: float = 0.0070
    height: float = 0.045
    grip_height: float = 0.035


@dataclass(frozen=True)
class WorkspaceBounds:
    x_min: float = 0.30
    x_max: float = 0.50
    y_min: float = -0.07
    y_max: float = 0.07
    yaw_max: float = 0.26
    source_x: float = 0.40
    source_y: float = -0.28


@dataclass(frozen=True)
class NoiseConfig:
    """Sensor and calibration error magnitudes.

    The visual calibration bias has a fixed angular part (mount misalignment,
    shared by every trial), a per-trial random angular part, and a per-trial
    random translational part; angular parts scale with camera-to-plane
    distance, which is what re-imaging from closer actually reduces.
    """

    bias_angle_x: float = 2.4e-3
    bias_angle_y: float = 1.0e-3
    sigma_bias_angle: float = 1.4e-3
    sigma_bias_xy: float = 1.05e-3
    sigma_detect: float = 0.15e-3
    sigma_force: float = 0.05
    sigma_pixel: float = 2.0
    sigma_grasp: float = 0.3e-3


@dataclass(frozen=True)
class ContactConfig:
    stiffness: float = 2000.0
    slip_rate: float = 4.0e-4
    mu_rubber: float = 1.0
    mu_tactile: float = 0.4
    max_offset: float = 5.2e-3


@dataclass(frozen=True)
class SearchConfig:
    spacing: float = 0.0025


@dataclass(frozen=True)
class ForceConfig:
    threshold: float = 0.2
    rate: int = 125
    buffer_seconds: float = 1.0
    floor: float = 0.5


def buffer_capacity(config: ForceConfig) -> int:
    """Samples in the force window: ``rate * buffer_seconds``, rounded."""
    return int(round(config.rate * config.buffer_seconds))


@dataclass(frozen=True)
class TactileConfig:
    rate: int = 60
    threshold: float = 0.35
    min_area: float = 25.0
    stop_px: float = 8.0
    width: int = 160
    height: int = 160
    span: float = 0.013
    blob_diameter: float = 0.004
    contact_floor: float = 25.0
    n_reference: int = 6
    sigma_grasp: float = 0.8e-3
    tilt_gain: float = 1.30


@dataclass(frozen=True)
class MotionConfig:
    speed: float = 0.03
    descent_speed: float = 0.04
    accel: float = 0.5
    lift_clearance: float = 0.010
    floor_margin: float = 0.001
    visual_floor: float = 0.005


@dataclass(frozen=True)
class TimingConfig:
    image_s: float = 7.7
    grasp_s: float = 6.4
    release_s: float = 6.3
    reference_s: float = 1.0
    tactile_settle_s: float = 1.5


@dataclass(frozen=True)
class ChtConfig:
    vote_frac: float = 0.40
    edge_thresh: float = 60.0
    r_lo_factor: float = 0.70
    r_hi_factor: float = 1.40


@dataclass(frozen=True)
class CnnConfig:
    theta_rack: float = 0.5
    theta_occ: float = 0.5
    tie_eps: float = 1e-6
    lr: float = 0.01
    momentum: float = 0.9
    epochs: int = 20
    batch_size: int = 32
    k1: int = 8
    k2: int = 16
    crop_size: int = 32
    train_scenes: int = 120


@dataclass(frozen=True)
class RenderConfig:
    distractors: int = 3


@dataclass(frozen=True)
class WorkspaceConfig:
    """Full benchmark configuration; every field has a working default."""

    camera: CameraConfig = field(default_factory=CameraConfig)
    rack: RackSpec = field(default_factory=RackSpec)
    vial: VialSpec = field(default_factory=VialSpec)
    workspace: WorkspaceBounds = field(default_factory=WorkspaceBounds)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    contact: ContactConfig = field(default_factory=ContactConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    force: ForceConfig = field(default_factory=ForceConfig)
    tactile: TactileConfig = field(default_factory=TactileConfig)
    motion: MotionConfig = field(default_factory=MotionConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    cht: ChtConfig = field(default_factory=ChtConfig)
    cnn: CnnConfig = field(default_factory=CnnConfig)
    render: RenderConfig = field(default_factory=RenderConfig)
    seed: int = 42

    @property
    def clearance(self) -> float:
        """Maximum horizontal miss that still admits the vial into a slot."""
        return self.rack.slot_radius - self.vial.radius

    def hover_z(self) -> float:
        return self.rack.height + self.vial.grip_height + self.motion.lift_clearance

    def descent_floor_z(self) -> float:
        """Grip height commanded during a monitored insertion descent."""
        return self.vial.grip_height + self.motion.floor_margin


# Section name -> its dataclass, in WorkspaceConfig field order.
_SECTIONS: dict[str, type] = {
    f.name: f.default_factory for f in dataclasses.fields(WorkspaceConfig)
    if f.name != "seed"}


def _field_types(cls: type) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _parse_value(raw: str, target: type, key: str, where: str):
    raw = raw.strip()
    try:
        if not raw.isascii() or "_" in raw:  # only the digits dump_config writes
            raise ValueError(raw)
        if target is int:
            if "." in raw or "e" in raw.lower():
                raise ValueError(raw)
            value = int(raw)
            float(value)  # beyond the float range it is no finite number
            return value
        if target is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
            return value
    except (ValueError, OverflowError):
        raise ConfigError(
            f"{where}: bad {target.__name__} value {raw!r} for key {key!r}"
        ) from None
    raise ConfigError(f"{where}: unsupported type for key {key!r}")


def read_utf8(path) -> str:
    """Whole file as text; a byte that is not UTF-8 raises ValueError naming
    the file, the line and the byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text "
                         f"(byte {data[exc.start]:#04x})") from None


def load_config(text: str = "", overrides: list[str] | None = None,
                source: str | None = None) -> WorkspaceConfig:
    """Parse flat ``section.key = value`` text into a validated config.

    Unknown keys and malformed lines raise ConfigError naming where the line
    came from: ``<source>: line N`` for the text (``line N`` without a
    source), ``override '<line>'`` for an override. Later assignments win,
    so ``overrides`` apply after the text. One leading byte-order mark
    (U+FEFF) of the text is skipped. Numbers are plain ASCII, as
    ``dump_config`` writes them: no ``_`` and no other script's digits.
    """
    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    seed = WorkspaceConfig.seed
    prefix = "" if source is None else f"{source}: "
    lines = [(f"{prefix}line {n}", line)
             for n, line in enumerate(text.removeprefix("\ufeff").splitlines(),
                                      start=1)]
    lines += [(f"override {line!r}", line) for line in overrides or ()]
    for where, line in lines:
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key == "seed":
            seed = _parse_value(raw, int, key, where)
            continue
        if "." not in key:
            raise ConfigError(f"{where}: key {key!r} is missing a section prefix")
        section, name = key.split(".", 1)
        cls = _SECTIONS.get(section)
        if cls is None:
            raise ConfigError(f"{where}: unknown section {section!r}")
        types = _field_types(cls)
        if name not in types:
            raise ConfigError(f"{where}: unknown key {key!r}")
        values[section][name] = _parse_value(raw, types[name], key, where)

    parts = {sec: cls(**values[sec]) for sec, cls in _SECTIONS.items()}
    config = WorkspaceConfig(seed=seed, **parts)
    validate_config(config)
    return config


def dump_config(config: WorkspaceConfig) -> str:
    """Serialize to the same flat text format; reparsing yields an equal config."""
    out = [f"seed = {config.seed}"]
    for section in sorted(_SECTIONS):
        part = getattr(config, section)
        for f in dataclasses.fields(part):
            out.append(f"{section}.{f.name} = {getattr(part, f.name)!r}")
    return "\n".join(out) + "\n"


def refined_camera_z(config: WorkspaceConfig) -> float:
    """Camera height for the close-up second look."""
    cam = config.camera
    return config.rack.height + cam.refine_factor * (cam.z - config.rack.height)


def hough_radii(config: WorkspaceConfig, cam_z: float) -> tuple[int, int]:
    """Hough radius sweep ``(r_min, r_max)`` in pixels, bracketing the slot
    radius as seen from camera height ``cam_z``."""
    depth = cam_z - config.rack.height
    if depth <= 0:
        raise ValueError("camera height must be above the rack plane")
    r_px = config.rack.slot_radius * config.camera.fx / depth
    return (max(3, int(np.floor(config.cht.r_lo_factor * r_px))),
            int(np.ceil(config.cht.r_hi_factor * r_px)))


def radius_sweep_error(config: WorkspaceConfig, cam_z: float,
                       shape: tuple[int, ...]) -> str | None:
    """Why the Hough sweep from camera height ``cam_z`` cannot run on an
    image of ``shape`` (rows, cols), or None when it can.

    The sweep must not be empty: ``r_min``, floored at 3 px, may not
    exceed ``r_max``. And ``r_max`` may be at most half the image's shorter
    side: no larger circle fits the image, and the vote buffer grows with
    ``r_max``.
    """
    if not cam_z > config.rack.height:
        return "camera must sit above the rack plane"
    try:
        r_min, r_max = hough_radii(config, cam_z)
    except OverflowError:  # the slot spans infinitely many pixels
        r_min, r_max = 3, math.inf
    if r_min > r_max:
        return f"slot radii up to {r_max} px are below the {r_min} px sweep floor"
    if 2 * r_max > min(shape):
        return (f"slot radii up to {r_max} px exceed half the "
                f"{shape[1]}x{shape[0]} image")
    return None


def _require(cond: bool, key: str, message: str, *reads: str) -> None:
    """ConfigError naming ``key`` unless ``cond``; ``reads`` are the other
    keys the rule reads, so every key that can break it is named."""
    if not cond:
        also = f" (depends on {', '.join(reads)})" if reads else ""
        raise ConfigError(f"{key}: {message}{also}")


def validate_config(config: WorkspaceConfig) -> None:
    """Range and consistency checks; messages name every key a rule reads."""
    _require(config.seed >= 0, "seed", "must be >= 0")
    cam, rack, vial = config.camera, config.rack, config.vial
    _require(cam.fx > 0, "camera.fx", "focal length must be positive")
    _require(cam.fy > 0, "camera.fy", "focal length must be positive")
    _require(cam.width >= 16, "camera.width", "image too small")
    _require(cam.height >= 16, "camera.height", "image too small")
    _require(cam.width <= MAX_CAMERA_SIDE, "camera.width",
             f"image too large, at most {MAX_CAMERA_SIDE} px")
    _require(cam.height <= MAX_CAMERA_SIDE, "camera.height",
             f"image too large, at most {MAX_CAMERA_SIDE} px")
    _require(0 <= cam.cx < cam.width, "camera.cx", "principal point outside image",
             "camera.width")
    _require(0 <= cam.cy < cam.height, "camera.cy", "principal point outside image",
             "camera.height")
    _require(cam.z > rack.height, "camera.z", "camera must sit above the rack plane",
             "rack.height")
    _require(0 < cam.refine_factor <= 1.0, "camera.refine_factor", "must be in (0, 1]")
    _require(rack.rows >= 1, "rack.rows", "rack needs at least one slot")
    _require(rack.cols >= 1, "rack.cols", "rack needs at least one slot")
    # A trial's scene needs one vacant slot and one occupied one.
    _require(rack.rows * rack.cols >= 2, "rack.rows",
             "rack needs at least two slots", "rack.cols")
    _require(rack.pitch > 2 * rack.slot_radius, "rack.pitch",
             "slots overlap: pitch <= 2*slot_radius", "rack.slot_radius")
    _require(rack.height > 0, "rack.height", "must be positive")
    _require(rack.footprint_w >= rack.cols * rack.pitch, "rack.footprint_w",
             "smaller than slot grid", "rack.cols", "rack.pitch")
    _require(rack.footprint_h >= rack.rows * rack.pitch, "rack.footprint_h",
             "smaller than slot grid", "rack.rows", "rack.pitch")
    _require(vial.radius > 0, "vial.radius", "must be positive")
    _require(vial.radius < rack.slot_radius, "vial.radius", "vial must fit the slot",
             "rack.slot_radius")
    _require(vial.grip_height > 0, "vial.grip_height", "must be positive")
    _require(vial.grip_height <= vial.height, "vial.grip_height",
             "must not exceed the vial height", "vial.height")
    ws = config.workspace
    _require(ws.x_min < ws.x_max, "workspace.x_min", "empty x range", "workspace.x_max")
    _require(ws.y_min < ws.y_max, "workspace.y_min", "empty y range", "workspace.y_max")
    _require(ws.yaw_max >= 0, "workspace.yaw_max", "must be >= 0")
    # Every rack pose must stay inside the overview image at rack height.
    reach = float(np.hypot(rack.footprint_w, rack.footprint_h))
    depth = cam.z - rack.height
    view = ("rack.footprint_w", "rack.footprint_h", "camera.z", "rack.height")
    _require(ws.x_max - ws.x_min + reach <= cam.width * depth / cam.fx,
             "workspace.x_min", "x range plus rack footprint exceeds the camera view",
             "workspace.x_max", *view, "camera.width", "camera.fx")
    _require(ws.y_max - ws.y_min + reach <= cam.height * depth / cam.fy,
             "workspace.y_min", "y range plus rack footprint exceeds the camera view",
             "workspace.y_max", *view, "camera.height", "camera.fy")
    # Fitting is not enough: the view must also sit over them.
    half = reach / 2
    _require(cam.x - cam.cx * depth / cam.fx <= ws.x_min - half
             and ws.x_max + half <= cam.x + (cam.width - cam.cx) * depth / cam.fx,
             "camera.x", "view does not cover the x range plus rack footprint",
             "workspace.x_min", "workspace.x_max", *view, "camera.width",
             "camera.fx", "camera.cx")
    _require(cam.y - cam.cy * depth / cam.fy <= ws.y_min - half
             and ws.y_max + half <= cam.y + (cam.height - cam.cy) * depth / cam.fy,
             "camera.y", "view does not cover the y range plus rack footprint",
             "workspace.y_min", "workspace.y_max", *view, "camera.height",
             "camera.fy", "camera.cy")
    noise = config.noise
    for name in ("sigma_bias_angle", "sigma_bias_xy", "sigma_detect", "sigma_force",
                 "sigma_pixel", "sigma_grasp"):
        _require(getattr(noise, name) >= 0, f"noise.{name}", "sigma must be >= 0")
    _require(config.contact.stiffness > 0, "contact.stiffness", "must be positive")
    _require(config.contact.slip_rate >= 0, "contact.slip_rate", "must be >= 0")
    _require(config.contact.mu_rubber > 0, "contact.mu_rubber", "must be positive")
    _require(config.contact.mu_tactile > 0, "contact.mu_tactile", "must be positive")
    _require(config.contact.max_offset > 0, "contact.max_offset", "must be positive")
    _require(config.search.spacing > 0, "search.spacing", "must be positive")
    tim = config.timing
    for name in ("image_s", "grasp_s", "release_s", "reference_s", "tactile_settle_s"):
        _require(getattr(tim, name) >= 0, f"timing.{name}", "must be >= 0")
    frc = config.force
    _require(frc.threshold > 0, "force.threshold", "must be positive")
    _require(frc.rate > 0, "force.rate", "must be positive")
    _require(math.isfinite(frc.rate * frc.buffer_seconds), "force.buffer_seconds",
             "rate * buffer_seconds overflows", "force.rate")
    _require(buffer_capacity(frc) >= 1, "force.buffer_seconds",
             "rate * buffer_seconds must round to at least one sample", "force.rate")
    _require(frc.floor > 0, "force.floor", "must be positive")
    tac = config.tactile
    _require(tac.rate > 0, "tactile.rate", "must be positive")
    _require(tac.rate <= frc.rate, "tactile.rate",
             "must not exceed the force rate it is sampled in", "force.rate")
    _require(0.0 <= tac.threshold <= 1.0, "tactile.threshold", "must be in [0, 1]")
    _require(tac.min_area >= 0, "tactile.min_area", "must be >= 0")
    _require(tac.stop_px > 0, "tactile.stop_px", "must be positive")
    _require(tac.width >= 16, "tactile.width", "frame too small")
    _require(tac.height >= 16, "tactile.height", "frame too small")
    _require(tac.width <= MAX_TACTILE_SIDE, "tactile.width",
             f"frame too large, at most {MAX_TACTILE_SIDE} px")
    _require(tac.height <= MAX_TACTILE_SIDE, "tactile.height",
             f"frame too large, at most {MAX_TACTILE_SIDE} px")
    _require(tac.span > 0, "tactile.span", "must be positive")
    _require(tac.blob_diameter > 0, "tactile.blob_diameter", "must be positive")
    _require(tac.n_reference >= 1, "tactile.n_reference", "need at least one reference frame")
    _require(tac.sigma_grasp >= 0, "tactile.sigma_grasp", "sigma must be >= 0")
    _require(tac.tilt_gain > 0, "tactile.tilt_gain", "must be positive")
    mot = config.motion
    _require(mot.speed > 0, "motion.speed", "must be positive")
    _require(mot.descent_speed > 0, "motion.descent_speed", "must be positive")
    _require(mot.accel > 0, "motion.accel", "must be positive")
    _require(mot.lift_clearance > 0, "motion.lift_clearance", "must be positive")
    _require(mot.floor_margin > 0, "motion.floor_margin", "must be positive")
    _require(mot.floor_margin < rack.height, "motion.floor_margin",
             "must be below the rack top", "rack.height")
    _require(mot.visual_floor > 0, "motion.visual_floor", "must be positive")
    _require(mot.visual_floor < rack.height, "motion.visual_floor",
             "must be below the rack top", "rack.height")
    cht = config.cht
    _require(0 < cht.vote_frac <= 1, "cht.vote_frac", "must be in (0, 1]")
    _require(cht.edge_thresh > 0, "cht.edge_thresh", "must be positive")
    _require(cht.r_lo_factor > 0, "cht.r_lo_factor", "must be positive")
    _require(cht.r_lo_factor < cht.r_hi_factor, "cht.r_lo_factor", "need lo < hi",
             "cht.r_hi_factor")
    # Both heights a campaign images from: the overview and the close-up.
    sweep = ("rack.height", "rack.slot_radius", "camera.fx", "cht.r_lo_factor",
             "cht.r_hi_factor", "camera.width", "camera.height")
    for key, cam_z, reads in (
            ("camera.z", cam.z, sweep),
            ("camera.refine_factor", refined_camera_z(config), ("camera.z", *sweep))):
        problem = radius_sweep_error(config, cam_z, (cam.height, cam.width))
        _require(problem is None, key, problem, *reads)
    cnn = config.cnn
    _require(0 <= cnn.theta_rack <= 1, "cnn.theta_rack", "must be in [0, 1]")
    _require(0 <= cnn.theta_occ <= 1, "cnn.theta_occ", "must be in [0, 1]")
    _require(cnn.tie_eps >= 0, "cnn.tie_eps", "must be >= 0")
    _require(cnn.lr > 0, "cnn.lr", "must be positive")
    _require(0 <= cnn.momentum < 1, "cnn.momentum", "must be in [0, 1)")
    _require(cnn.epochs >= 1, "cnn.epochs", "must be >= 1")
    _require(cnn.batch_size >= 1, "cnn.batch_size", "must be >= 1")
    _require(cnn.k1 >= 1, "cnn.k1", "channel count must be >= 1")
    _require(cnn.k2 >= 1, "cnn.k2", "channel count must be >= 1")
    _require(cnn.crop_size >= 16 and cnn.crop_size % 16 == 0, "cnn.crop_size",
             "must be a multiple of 16")
    _require(cnn.crop_size <= MAX_CROP_SIZE, "cnn.crop_size",
             f"crop too large, at most {MAX_CROP_SIZE} px")
    _require(cnn.train_scenes >= 1, "cnn.train_scenes", "must be >= 1")
    _require(config.render.distractors >= 0, "render.distractors", "must be >= 0")

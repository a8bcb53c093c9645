"""Ground-truth scene state, kinematics, contact, and synthetic sensor rendering.

The simulator owns everything the controllers are not allowed to see directly:
true rack pose, slot occupancy, the in-gripper vial offset, the visual
calibration bias, and the fingertip material parameters. Controllers interact
only through rendered images, force samples, tactile frames, and motion
commands, mirroring how the physical workcell is driven.

Every scene draws from one generator, ``scene.rng``. A process keeps one
draw worker, a one-thread ``concurrent.futures`` pool named
``vialbench-draw`` whose thread starts on the first draw made there; a
forked child makes its own. It draws standard normals from the scene
generator beside the rest of the work, in the order they are asked for,
so the bytes are the same wherever a draw is made, and
:func:`_draw_worker` alone decides where. The worker draws each camera
image's pixel noise while :func:`render_topdown` draws the scene, and,
inside :func:`draw_ahead` on a scene whose rig has fingertip sensors, the
chunks that every later draw is served from: a trial opens the block
right after its overview look, so the bank fills while the overview's
circles are detected and scored, and the fingertip calibration right
after ``reset_trial``. Everything else draws in line: the scene set-up
and the camera jitter, the ticks of a scene without fingertip sensors,
and every draw on one CPU. Between draws the worker is idle.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .core import KEY_RIG, Pose3, RngStream, WorkspaceConfig
from .geometry import plane_grid
from .tactile import FINGERS


class SimError(RuntimeError):
    """Raised when an operation is invalid for the current scene state."""


@dataclass(frozen=True)
class FingertipRig:
    """Gripper fingertip material model plus the true tactile mount maps.

    ``map_gain``/``map_offset`` take a physical in-gripper offset (meters) to
    normalized tactile image coordinates per finger; they are perturbed copies
    of the nominal mount so the calibration procedure has something real to
    estimate. ``tilt_gain`` scales how far the vial bottom kicks out per unit
    of grip-level offset: a stiff rubber pad holds the vial vertical (1.0), a
    compliant gel pad lets it lean.
    """

    mu: float
    sigma_grasp: float
    tilt_gain: float
    map_gain: dict[str, np.ndarray] = field(default_factory=dict)
    map_offset: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def has_tactile(self) -> bool:  # tactile sensors come with mount maps
        return bool(self.map_gain)


def make_rig(config: WorkspaceConfig, material: str) -> FingertipRig:
    """Build the fingertip rig for one material, seeded from the master seed."""
    if material == "rubber":
        return FingertipRig(
            mu=config.contact.mu_rubber,
            sigma_grasp=config.noise.sigma_grasp,
            tilt_gain=1.0,
        )
    if material != "tactile":
        raise ValueError(f"unknown fingertip material {material!r}")
    gen = RngStream(config.seed).child(KEY_RIG).generator()
    span = config.tactile.span
    gains: dict[str, np.ndarray] = {}
    offsets: dict[str, np.ndarray] = {}
    for finger, mirror in (("left", 1.0), ("right", -1.0)):
        gx = mirror * (1.0 + gen.normal(0.0, 0.04)) / span
        gy = (1.0 + gen.normal(0.0, 0.04)) / span
        cross = gen.normal(0.0, 0.02, size=2) / span
        gains[finger] = np.array([[gx, cross[0]], [cross[1], gy]])
        offsets[finger] = 0.5 + gen.normal(0.0, 0.015, size=2)
    return FingertipRig(
        mu=config.contact.mu_tactile,
        sigma_grasp=config.tactile.sigma_grasp,
        tilt_gain=config.tactile.tilt_gain,
        map_gain=gains,
        map_offset=offsets,
    )


@dataclass
class SceneState:
    """Mutable per-trial world state. Single-owner: only this module assigns
    its fields; a render returns the camera pose it imaged from."""

    config: WorkspaceConfig
    rig: FingertipRig
    rack_xy: np.ndarray
    rack_yaw: float
    occupancy: np.ndarray  # (rows, cols) bool
    slots: np.ndarray  # (rows*cols, 2) world xy of the slot centers, row-major
    setpoint: np.ndarray  # commanded grip position the arm is tracking
    held_offset: np.ndarray | None  # in-gripper vial offset (2,), None if empty
    bias_angle: np.ndarray  # per-trial angular camera miscalibration (2,)
    bias_xy: np.ndarray  # per-trial translational camera miscalibration (2,)
    distractors: list[tuple[float, float, float, float]]  # x, y, radius, shade
    rng: np.random.Generator
    speed: float = 0.0
    pin_z: float | None = None
    inserted_slot: tuple[int, int] | None = None  # the slot a release fills
    sim_clock: float = 0.0
    # The last ``_support`` answer and its key, (bx, by, occupancy bytes).
    _support_memo: tuple | None = None
    # Per finger, the last held-vial gel image before noise and its key,
    # the ``held_offset`` bytes; the image is read-only.
    _held_images: dict = field(default_factory=dict)

    @property
    def grip_z(self) -> float:
        """Actual grip height: the setpoint's, z-limited by any contact pin."""
        z = float(self.setpoint[2])
        return z if self.pin_z is None else max(z, self.pin_z)


def _slot_centers(rack, rack_xy: np.ndarray, yaw: float) -> np.ndarray:
    """World (x, y) of every slot center of ``rack`` posed at ``rack_xy``
    and ``yaw``, row-major, shape (rows*cols, 2)."""
    cols = np.arange(rack.cols) - (rack.cols - 1) / 2.0
    rows = np.arange(rack.rows) - (rack.rows - 1) / 2.0
    lx, ly = np.meshgrid(cols * rack.pitch, rows * rack.pitch)
    local = np.stack([lx.ravel(), ly.ravel()], axis=1)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s], [s, c]])
    return rack_xy[None, :] + local @ rot.T


def in_rack_footprint(scene: SceneState, x, y):
    """Whether world point (``x``, ``y``) lies on the rack's footprint; floats
    give a bool, arrays an element-wise mask (the renderer's rack body).

    Each product and sum rounds alike on floats and on arrays, so a point
    gets the same answer in either form.
    """
    rack = scene.config.rack
    c, s = math.cos(scene.rack_yaw), math.sin(scene.rack_yaw)
    rx, ry = scene.rack_xy.tolist()
    dx, dy = x - rx, y - ry
    return ((abs(c * dx + s * dy) <= rack.footprint_w / 2)
            & (abs(-s * dx + c * dy) <= rack.footprint_h / 2))


def reset_trial(config: WorkspaceConfig, rng: RngStream,
                rig: FingertipRig | None = None) -> SceneState:
    """Fresh trial: random rack pose and occupancy, vial grasped at the source.

    The grasp happens "from above" at a known source position, so the gripper
    starts at source hover height already holding a vial whose in-gripper
    offset is drawn from the rig's grasp noise, at zero too (it gives +0.0),
    so every rig's scene from one ``rng`` makes the same draws.
    """
    if rig is None:
        rig = make_rig(config, "rubber")
    ws, rack = config.workspace, config.rack
    gen = rng.generator()
    rack_xy = np.array([gen.uniform(ws.x_min, ws.x_max),
                        gen.uniform(ws.y_min, ws.y_max)])
    yaw = float(gen.uniform(-ws.yaw_max, ws.yaw_max))
    occupancy = gen.random((rack.rows, rack.cols)) < 0.4
    if occupancy.all():
        occupancy[gen.integers(rack.rows), gen.integers(rack.cols)] = False
    if not occupancy.any():
        occupancy[gen.integers(rack.rows), gen.integers(rack.cols)] = True

    bias_angle = np.array([config.noise.bias_angle_x, config.noise.bias_angle_y])
    bias_angle = bias_angle + gen.normal(0.0, config.noise.sigma_bias_angle, 2)
    bias_xy = gen.normal(0.0, config.noise.sigma_bias_xy, 2)
    held = gen.normal(0.0, rig.sigma_grasp, 2)

    scene = SceneState(
        config=config,
        rig=rig,
        rack_xy=rack_xy,
        rack_yaw=yaw,
        occupancy=occupancy,
        slots=_slot_centers(rack, rack_xy, yaw),
        setpoint=np.array([ws.source_x, ws.source_y, config.hover_z() + 0.03]),
        held_offset=held,
        bias_angle=bias_angle,
        bias_xy=bias_xy,
        distractors=[],
        rng=gen,
    )
    _seed_distractors(scene)
    return scene


def _seed_distractors(scene: SceneState) -> None:
    """Scatter ring-shaped clutter on the table, clear of the rack."""
    cfg, gen = scene.config, scene.rng
    cam, rack = cfg.camera, cfg.rack
    depth = cam.z - rack.height
    slot_r_px = rack.slot_radius * cam.fx / depth
    margin = float(np.hypot(rack.footprint_w, rack.footprint_h)) / 2 + 0.015
    ws = cfg.workspace
    for _ in range(cfg.render.distractors):
        for _attempt in range(40):
            pos = np.array([gen.uniform(ws.x_min - 0.03, ws.x_max + 0.03),
                            gen.uniform(ws.y_min - 0.03, ws.y_max + 0.03)])
            if np.linalg.norm(pos - scene.rack_xy) < margin:
                continue
            if any(np.hypot(pos[0] - d[0], pos[1] - d[1]) < 0.03
                   for d in scene.distractors):
                continue
            r_px = gen.uniform(0.85, 1.30) * slot_r_px
            radius = r_px * cam.z / cam.fx  # table plane depth
            shade = gen.uniform(55.0, 85.0)
            scene.distractors.append((float(pos[0]), float(pos[1]), float(radius), shade))
            break


# ---------------------------------------------------------------------------
# contact model


def _support(scene: SceneState, bx: float, by: float):
    """Support height under the vial bottom at (bx, by).

    Returns (support_z, slot_rc, rim_slot_center). ``slot_rc`` is the
    (row, col) of the vacant slot the bottom fits, else None. The rim
    center is set when the bottom overlaps a vacant slot's opening without
    fitting it, which is the configuration that generates lateral rim
    reaction and therefore in-gripper slip.

    Between slips a descent keeps (bx, by) fixed, so the last answer is
    kept on the scene and reused while (bx, by) and the occupancy are
    unchanged; the rack pose never changes within a scene.
    """
    key = (bx, by, scene.occupancy.tobytes())
    memo = scene._support_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    found = _find_support(scene, bx, by)
    scene._support_memo = (key, found)
    return found


def _find_support(scene: SceneState, bx: float, by: float):
    cfg = scene.config
    rack, vial = cfg.rack, cfg.vial
    if not in_rack_footprint(scene, bx, by):
        return 0.0, None, None

    # The nearest slot, and the nearest occupied one closer than two vial
    # radii; the first in row-major order on ties, as ``np.argmin`` picks.
    centers = scene.slots
    occ = scene.occupancy.ravel().tolist()
    reach = 2 * vial.radius
    nearest = hit = None
    d_near = d_hit = math.inf
    for idx, (cx, cy) in enumerate(centers.tolist()):
        dx, dy = cx - bx, cy - by
        d = math.sqrt(dx * dx + dy * dy)  # norm(axis=1), term for term
        if d < d_near:
            nearest, d_near = idx, d
        if occ[idx] and d < reach and d < d_hit:
            hit, d_hit = idx, d

    if hit is not None:
        return vial.height, None, None
    if not occ[nearest] and d_near <= cfg.clearance:
        return 0.0, divmod(nearest, rack.cols), None

    rim_center = None
    if not occ[nearest] and cfg.clearance < d_near < rack.slot_radius + vial.radius:
        rim_center = centers[nearest]
    return rack.height, None, rim_center


def _bottom(scene: SceneState) -> tuple[float, float]:
    """World (x, y) of the held vial's bottom-center."""
    sx, sy = scene.setpoint[:2].tolist()
    hx, hy = scene.held_offset.tolist()
    tilt = scene.rig.tilt_gain
    return sx + tilt * hx, sy + tilt * hy


def _resolve_contact(scene: SceneState, dt: float) -> float:
    """Update the pin and inserted slot for the setpoint; returns contact force.

    With ``dt`` zero this is a pure state refresh (no slip accumulates).
    """
    cfg = scene.config
    sz = float(scene.setpoint[2])
    if scene.held_offset is not None:
        bx, by = _bottom(scene)
        support, slot_rc, rim_center = _support(scene, bx, by)
        pin = support + cfg.vial.grip_height
        scene.pin_z = pin
        # In the vacant slot it fits once the vial bottom is below the rack top.
        scene.inserted_slot = (slot_rc if max(sz, pin)
                               < cfg.rack.height + cfg.vial.grip_height else None)
        penetration = max(0.0, pin - sz)
        force_contact = cfg.contact.stiffness * penetration

        # Rim reaction drags the vial within the gripper, away from the slot.
        if rim_center is not None and penetration > 0 and dt > 0:
            away = np.array([bx, by]) - rim_center
            norm = float(np.linalg.norm(away))
            if norm > 1e-9:
                drift = (cfg.contact.slip_rate / scene.rig.mu) * force_contact * dt
                scene.held_offset = scene.held_offset + (away / norm) * drift
                if np.max(np.abs(scene.held_offset)) > cfg.contact.max_offset:
                    # Slid past the fingertip edge: the vial is gone.
                    _let_go(scene)
                    force_contact = 0.0
    else:
        scene.pin_z = 0.0
        penetration = max(0.0, -sz)
        force_contact = cfg.contact.stiffness * penetration
        scene.inserted_slot = None
    return force_contact


def _let_go(scene: SceneState) -> None:
    """The gripper no longer holds a vial: nothing pins it or sits in a slot."""
    scene.held_offset = None
    scene.pin_z = None
    scene.inserted_slot = None


def tick(scene: SceneState, target) -> np.ndarray:
    """Advance one force-sensor period toward ``target`` at the descent speed,
    with the accel ramp: motion, contact, slip, and a wrist force reading,
    the ``(3,)`` vector ``(fx, fy, fz)`` in newtons."""
    cfg = scene.config
    dt = 1.0 / cfg.force.rate

    # Setpoint tracking with an acceleration-limited speed ramp.
    delta = np.asarray(target, dtype=float) - scene.setpoint
    dist = math.sqrt(np.dot(delta, delta))  # np.linalg.norm of a vector
    if dist > 1e-12:
        scene.speed = min(cfg.motion.descent_speed,
                          scene.speed + cfg.motion.accel * dt)
        step = min(scene.speed * dt, dist)
        scene.setpoint = scene.setpoint + delta * (step / dist)
        if step >= dist:
            scene.speed = 0.0
    else:
        scene.speed = 0.0

    force_contact = _resolve_contact(scene, dt)

    scene.sim_clock += dt
    x, y, _ = scene.setpoint.tolist()
    bx, by, bz = _static_bias(x, y, scene.grip_z, scene.held_offset is not None)
    # ``0 + sigma * z`` is ``rng.normal(0, sigma, 3)`` term for term, drawn
    # as ``standard_normal``, the one draw ``draw_ahead`` serves.
    sigma = cfg.noise.sigma_force
    zx, zy, zz = scene.rng.standard_normal(3).tolist()
    return np.array([bx + (0.0 + sigma * zx), by + (0.0 + sigma * zy),
                     bz + force_contact + (0.0 + sigma * zz)])


def jump_setpoint(scene: SceneState, target) -> None:
    """Instantly reposition the setpoint (unmonitored transit shortcut),
    charging the travel time, the straight-line distance at
    ``motion.speed``. Valid only for legs that stay clear of contact."""
    target = np.asarray(target, dtype=float)
    dist = float(np.linalg.norm(target - scene.setpoint))
    scene.setpoint = target.copy()
    scene.speed = 0.0
    _resolve_contact(scene, 0.0)
    advance_clock(scene, dist / scene.config.motion.speed)


def advance_clock(scene: SceneState, seconds: float) -> None:
    """Charge wall time for actions the simulator does not integrate."""
    if seconds < 0:
        raise ValueError("cannot charge negative time")
    scene.sim_clock += seconds


def impose_grasp(scene: SceneState, offset) -> None:
    """Force a known in-gripper offset (calibration rigs use this)."""
    scene.held_offset = np.asarray(offset, dtype=float).copy()
    _resolve_contact(scene, 0.0)


def _static_bias(x: float, y: float, z: float,
                 holding: bool) -> tuple[float, float, float]:
    """Smooth pose-dependent wrist bias plus payload at grip (x, y, z);
    never exactly zero."""
    payload = -0.25 if holding else 0.0
    return (0.40 * math.sin(3.0 * x + 1.0) + 0.15 * y,
            0.40 * math.cos(2.0 * y + 0.5) + 0.10 * x,
            -4.0 + 0.30 * x + 0.20 * y + 0.05 * z + payload)


def release_and_evaluate(scene: SceneState) -> str:
    """Open the gripper and judge where the vial ends up: "inserted" (in a
    slot, below the rack top within clearance; the slot fills), else
    "resting_on_rack" or "dropped_on_table", whatever is underneath."""
    if scene.held_offset is None:
        raise SimError("release with no vial held")
    if scene.inserted_slot is not None:
        scene.occupancy[scene.inserted_slot] = True
        placement = "inserted"
    elif in_rack_footprint(scene, *_bottom(scene)):
        placement = "resting_on_rack"
    else:
        placement = "dropped_on_table"
    _let_go(scene)
    return placement


# ---------------------------------------------------------------------------
# camera rendering

_TABLE_BASE = 170.0
_RACK_BODY = 92.0
_RIM_DARK = 45.0
_VACANT_BRIGHT = 228.0
_GAP_DARK = 55.0
_CAP_GRAY = 140.0
_CAP_DOT = 110.0
_RIM_HALF = 0.0008  # rim line half-thickness, meters
_DOT_R = 0.002  # cap centre dot radius, meters
_SLACK = 1e-6  # meters added to each drawing box against rounding


def _span(coord: np.ndarray, centre: float, reach: float) -> slice | None:
    """Pixel indices whose plane coordinate ``coord`` lies within ``reach``
    of ``centre``. ``coord`` is monotonic, so they are one slice; None when
    there are none."""
    hit = np.flatnonzero(np.abs(coord - centre) <= reach)
    return slice(hit[0], hit[-1] + 1) if hit.size else None


def render_topdown(scene: SceneState, cam_pose: Pose3) -> tuple[np.ndarray, Pose3]:
    """Render the overhead camera view from the *requested* pose.

    The image is actually formed from the requested pose shifted by the trial's
    calibration bias (angular error scales with height) plus fresh per-shot
    jitter; controllers inverting pixels through the requested pose therefore
    inherit exactly that bias. Returns ``(image, pose)``: a uint8 image of the
    camera's size and the effective pose it was formed from.

    The pixel noise is the draw after the jitter's. Made on the draw
    worker, it is drawn while this thread draws the scene, which takes no
    draw, and the render returns or raises only once that draw has ended.
    """
    cfg = scene.config
    cam = cfg.camera
    if cam_pose.z <= cfg.rack.height:
        raise SimError("camera must be above the rack plane")

    depth = cam_pose.z - cfg.rack.height
    shift = (scene.bias_xy + scene.bias_angle * depth
             + (0.0 + cfg.noise.sigma_detect * scene.rng.standard_normal(2)))
    eff = Pose3(cam_pose.x + shift[0], cam_pose.y + shift[1], cam_pose.z)

    draw = functools.partial(scene.rng.standard_normal, (cam.height, cam.width))
    worker = _draw_worker(scene)
    if worker is None:
        img, noise = _scene_image(scene, eff), draw()
    else:
        drawn = worker.submit(draw)
        try:
            img = _scene_image(scene, eff)
        finally:
            wait((drawn,))
        noise = drawn.result()
    return _noisy_bytes(img, noise, cfg.noise.sigma_pixel), eff


def _scene_image(scene: SceneState, eff: Pose3) -> np.ndarray:
    """The float image of the scene seen from ``eff``, before noise.

    On the nadir camera a plane's x depends only on the pixel column and y
    only on the row, so every shape is drawn from one row and one column of
    plane coordinates, inside the box that can hold it.
    """
    cfg = scene.config
    cam = cfg.camera

    # Table plane: gradient, two straight seams, ring-shaped clutter.
    tx, ty = plane_grid(cam, eff, 0.0)
    ws = cfg.workspace
    cx0 = (ws.x_min + ws.x_max) / 2.0
    cy0 = (ws.y_min + ws.y_max) / 2.0
    img = ((_TABLE_BASE + 50.0 * (tx - cx0))[None, :]
           + (35.0 * (ty - cy0))[:, None])
    img[np.abs(ty - (cy0 - 0.11)) < 0.0012] = 130.0
    img[:, np.abs(tx - (cx0 + 0.13)) < 0.0012] = 135.0
    for dx, dy, dr, shade in scene.distractors:
        reach = dr + _RIM_HALF + _SLACK
        rows, cols = _span(ty, dy, reach), _span(tx, dx, reach)
        if rows is None or cols is None:
            continue
        dd = np.hypot(tx[None, cols] - dx, ty[rows, None] - dy)
        img[rows, cols][np.abs(dd - dr) < _RIM_HALF] = shade

    # Rack plane: body mask plus per-slot detail.
    rx, ry = plane_grid(cam, eff, cfg.rack.height)
    rack = cfg.rack
    reach = float(np.hypot(rack.footprint_w, rack.footprint_h)) / 2.0 + _SLACK
    rows = _span(ry, scene.rack_xy[1], reach)
    cols = _span(rx, scene.rack_xy[0], reach)
    if rows is not None and cols is not None:
        inside = in_rack_footprint(scene, rx[None, cols], ry[rows, None])
        img[rows, cols][inside] = _RACK_BODY

    slot_r = rack.slot_radius
    # A slot's outermost mark is its rim, or a cap dot wider than the slot.
    reach = max(slot_r + _RIM_HALF, _DOT_R) + _SLACK
    for (sx, sy), occupied in zip(scene.slots, scene.occupancy.flat):
        rows, cols = _span(ry, sy, reach), _span(rx, sx, reach)
        if rows is None or cols is None:
            continue
        d = np.hypot(rx[None, cols] - sx, ry[rows, None] - sy)
        patch = img[rows, cols]
        interior = d <= slot_r - _RIM_HALF
        if occupied:
            patch[interior] = _GAP_DARK
            patch[d <= cfg.vial.radius] = _CAP_GRAY
            patch[d <= _DOT_R] = _CAP_DOT
        else:
            patch[interior] = _VACANT_BRIGHT
        patch[np.abs(d - slot_r) <= _RIM_HALF] = _RIM_DARK

    return img


def _noisy_bytes(img: np.ndarray, noise: np.ndarray,
                 sigma: float) -> np.ndarray:
    """``img`` plus ``sigma`` times ``noise``, standard normals of its
    shape, clipped and cast to uint8; ``noise`` is scaled in place and
    ``img`` left as it is.

    ``rng.normal(0, sigma)`` is ``0 + sigma * z`` over the same standard
    normal draws, so scaling a ``standard_normal`` draw gives the same bits
    and leaves the generator in the same state, without the loc and scale
    broadcast.
    """
    noise *= sigma
    noise += img  # the same sum as ``img + noise``
    np.clip(noise, 0.0, 255.0, out=noise)
    return noise.astype(np.uint8)


# ---------------------------------------------------------------------------
# tactile rendering

_GEL_BASE = 26.0
_GEL_RING = 14.0
_BLOB_BRIGHT = 205.0


@functools.lru_cache(maxsize=8)
def _gel_pattern(width: int, height: int) -> np.ndarray:
    """Fixed resting texture of the gel surface (a soft vignette), shared
    per frame size and read-only: copy it before drawing on it."""
    u = (np.arange(width) - (width - 1) / 2.0) / width
    v = (np.arange(height) - (height - 1) / 2.0) / height
    r2 = u[None, :] ** 2 + v[:, None] ** 2
    pattern = _GEL_BASE + _GEL_RING * np.exp(-r2 / 0.18)
    pattern.flags.writeable = False
    return pattern


def _blob_pixel(rig: FingertipRig, finger: str, offset: np.ndarray,
                width: int, height: int) -> np.ndarray:
    n = rig.map_gain[finger] @ offset + rig.map_offset[finger]
    return n * np.array([width - 1.0, height - 1.0])


def sample_tactile(scene: SceneState, finger: str,
                   open_gripper: bool = False) -> np.ndarray:
    """One tactile frame for ``finger`` ("left" or "right").

    A held vial appears as a bright filled disk positioned by the finger's
    true (perturbed) mount map applied to the in-gripper offset; an empty
    gripper yields only the resting gel pattern plus noise.
    ``open_gripper=True`` renders a no-contact frame even with a vial held,
    which is how the pre-campaign reference set is captured.
    """
    cfg = scene.config
    if not scene.rig.has_tactile:
        raise SimError("fingertips have no tactile sensors in this rig")
    if finger not in FINGERS:
        raise ValueError(f"finger must be one of {FINGERS}, got {finger!r}")
    W, H = cfg.tactile.width, cfg.tactile.height
    if scene.held_offset is None or open_gripper:
        img = _gel_pattern(W, H)
    else:
        # Before noise, the image depends only on the rig, the finger and
        # the offset, which most frames of a descent repeat.
        key = scene.held_offset.tobytes()
        memo = scene._held_images.get(finger)
        if memo is not None and memo[0] == key:
            img = memo[1]
        else:
            img = _held_image(scene, finger, W, H)
            scene._held_images[finger] = (key, img)
    return _noisy_bytes(img, scene.rng.standard_normal(img.shape),
                        cfg.noise.sigma_pixel)


def _held_image(scene: SceneState, finger: str, W: int, H: int) -> np.ndarray:
    """The gel pattern with the held vial's blob drawn on it, read-only."""
    tac = scene.config.tactile
    img = _gel_pattern(W, H)
    center = _blob_pixel(scene.rig, finger, scene.held_offset, W, H)
    px_per_m = (W - 1.0) / tac.span
    r_px = tac.blob_diameter / 2.0 * px_per_m
    # cover is exactly 0 from r_px + 1 out, so only the blob's bounding
    # box (inclusive, clipped to the frame) can change.
    reach = r_px + 1.0
    u0 = max(int(np.floor(center[0] - reach)), 0)
    u1 = min(int(np.ceil(center[0] + reach)) + 1, W)
    v0 = max(int(np.floor(center[1] - reach)), 0)
    v1 = min(int(np.ceil(center[1] + reach)) + 1, H)
    if u0 < u1 and v0 < v1:
        uu = np.arange(u0, u1)[None, :] - center[0]
        vv = np.arange(v0, v1)[:, None] - center[1]
        d = np.hypot(uu, vv)
        cover = np.clip((r_px - d + 1.0) / 2.0, 0.0, 1.0)
        img = img.copy()
        box = img[v0:v1, u0:u1]
        box += (_BLOB_BRIGHT - box) * cover
        img.flags.writeable = False
    return img


def reference_frames(scene: SceneState, finger: str) -> np.ndarray:
    """Reference stack for the difference pipeline: ``n_reference``
    open-gripper frames as one ``(n_reference, H, W)`` uint8 array.

    One stack per capture lets ``tactile.find_contact`` difference every
    live frame against all references in one exact step on the bytes.
    """
    return np.stack([sample_tactile(scene, finger, open_gripper=True)
                     for _ in range(scene.config.tactile.n_reference)])


# ---------------------------------------------------------------------------
# the draw worker

# The process's one draw worker. The pool starts its one thread on its
# first submit, under its own lock, so importing starts none.
_worker: ThreadPoolExecutor


def _fresh_worker() -> None:
    """Make the process's draw worker; a forked child makes its own, since
    the parent's thread does not run there and a draw submitted to the
    parent's pool would never be made."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1,
                                 thread_name_prefix="vialbench-draw")


_fresh_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_worker)


def _draw_worker(scene: SceneState) -> ThreadPoolExecutor | None:
    """Where ``scene``'s draws are made: the draw worker, or None for in
    line. None with fewer than 2 CPUs in ``os.sched_getaffinity``, read on
    every call, where the thread would only add hand-offs (a cgroup CPU
    quota is not seen there, so a container held to one CPU still starts
    it), and when ``scene.rng`` is the draw-ahead stand-in, whose draw made
    on the worker could wait for chunks queued behind it."""
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    if len(cpus) < 2 or isinstance(scene.rng, _AheadNormals):
        return None
    return _worker


# ---------------------------------------------------------------------------
# drawing ahead

DRAW_AHEAD_CHUNK = 65_536  # standard normals the worker draws at a time
# Chunks drawn ahead of the one being served, at most. A chunk takes about
# 0.9 ms to draw, so 24 cover the 17-20 ms in which a tactile trial detects
# and scores its overview before its first frame; the bank then feeds the
# frame loop, which asks for normals faster than one thread draws them.
# The bank holds at most 24 * 65,536 float64s, about 12.6 MB.
DRAW_AHEAD_DEPTH = 24


@contextmanager
def draw_ahead(scene: SceneState):
    """Open it where ``scene`` will draw nothing but standard normals from
    then on, as early as that holds.

    On a scene whose rig has fingertip sensors, and where
    :func:`_draw_worker` gives the worker, ``scene.rng`` then serves only
    ``standard_normal``, from chunks the worker draws ahead with the scene
    generator, up to ``DRAW_AHEAD_DEPTH`` chunks ahead; any other use of it
    raises AttributeError. The worker starts drawing at once, so work that
    draws nothing, run inside the block before the first draw, fills the
    bank. The chunks are consecutive draws, so each call gets the bits a
    plain call would give. On exit, normal or by an exception, the chunks
    not yet begun are cancelled, without waiting for one being drawn.
    ``scene.rng`` stays the closed stand-in: the generator has drawn past
    what was served, so any later draw raises instead of going on from the
    wrong place.

    Otherwise the block changes nothing. A scene without fingertip sensors
    draws a close-up, whose noise the render already draws on the worker,
    and ticks of 3 normals; a bank would only keep the second CPU busy,
    and camera trials measured slower with one.
    """
    worker = _draw_worker(scene) if scene.rig.has_tactile else None
    if worker is None:
        yield
        return
    ahead = _AheadNormals(scene.rng, worker)
    scene.rng = ahead
    try:
        yield
    finally:
        ahead.close()


class _AheadNormals:
    """``scene.rng`` inside :func:`draw_ahead`: standard normals served
    from chunks that the draw worker draws in order, and nothing else."""

    def __init__(self, gen: np.random.Generator, worker: ThreadPoolExecutor):
        self._submit = functools.partial(worker.submit, gen.standard_normal,
                                         DRAW_AHEAD_CHUNK)
        # The chunks drawn, or being drawn, ahead of the one being served.
        # A failed draw stays at the head, so every later draw raises its
        # error; close() empties it.
        self._pending = deque(self._submit() for _ in range(DRAW_AHEAD_DEPTH))
        self._chunk = np.empty(0)  # the chunk being served
        self._served = 0  # how much of it is served

    def __getattr__(self, name):
        raise AttributeError(f"inside draw_ahead the scene generator serves "
                             f"only standard_normal, not {name!r}")

    def _next_chunk(self) -> None:
        if not self._pending:
            raise RuntimeError("draw_ahead is closed: the scene generator "
                               "has drawn past what it served")
        self._chunk, self._served = self._pending[0].result(), 0
        self._pending.popleft()
        self._pending.append(self._submit())

    def standard_normal(self, size) -> np.ndarray:
        """The next draws of ``Generator.standard_normal(size)``, float64:
        a view of one chunk, or the pieces of several joined."""
        count = math.prod(size) if isinstance(size, tuple) else int(size)
        pieces = []
        while count or not pieces:
            if self._served == self._chunk.size:
                self._next_chunk()
            take = min(count, self._chunk.size - self._served)
            pieces.append(self._chunk[self._served:self._served + take])
            self._served += take
            count -= take
        out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        return out.reshape(size)

    def close(self) -> None:
        """Cancel the chunks not yet begun, without waiting for one being
        drawn; every later draw raises."""
        for chunk in self._pending:
            chunk.cancel()
        self._pending.clear()
        self._chunk, self._served = np.empty(0), 0

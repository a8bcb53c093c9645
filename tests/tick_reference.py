"""The seed control-period step, kept unchanged as the reference for tests.

``vialbench.simworld.tick`` must return the same force vector as this
version and leave the scene in the same state: setpoint, speed, held
offset, pin, clock and RNG, and ``inserted_slot`` equal to this version's
``contact_slot`` when its ``contact`` is ``Contact.INSERTED`` (None
otherwise). This version keeps its four-valued contact in the scene's
``contact`` and ``contact_slot`` attributes, takes its target, speed limit
and ramp as a ``MoveCommand`` and its period as ``dt``. These copies build
small numpy arrays at every step: the vial bottom, the rack-frame offset
with ``np.stack``, the distance to every slot with ``np.linalg.norm`` and
the wrist bias as an array.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from vialbench.simworld import SceneState


class Contact(enum.Enum):
    NONE = "none"
    RACK_TOP = "rack_top"
    TABLE = "table"
    INSERTED = "inserted"


@dataclass(frozen=True)
class MoveCommand:
    """Position setpoint target with a speed limit and acceleration ramp."""

    target: np.ndarray
    speed: float
    accel: float


def _to_rack_frame(scene: SceneState, xy: np.ndarray) -> np.ndarray:
    c, s = np.cos(scene.rack_yaw), np.sin(scene.rack_yaw)
    d = np.asarray(xy, dtype=float) - scene.rack_xy
    return np.stack([c * d[..., 0] + s * d[..., 1],
                     -s * d[..., 0] + c * d[..., 1]], axis=-1)


def _support(scene: SceneState, bottom_xy: np.ndarray):
    cfg = scene.config
    rack, vial = cfg.rack, cfg.vial
    local = _to_rack_frame(scene, bottom_xy)
    if abs(local[0]) > rack.footprint_w / 2 or abs(local[1]) > rack.footprint_h / 2:
        return 0.0, Contact.TABLE, None, None

    centers = scene.slots
    d = np.linalg.norm(centers - bottom_xy[None, :], axis=1)
    occ = scene.occupancy.ravel()

    occupied_hit = np.where(occ & (d < 2 * vial.radius))[0]
    if occupied_hit.size:
        idx = int(occupied_hit[np.argmin(d[occupied_hit])])
        return vial.height, Contact.RACK_TOP, divmod(idx, rack.cols), None

    nearest = int(np.argmin(d))
    if not occ[nearest] and d[nearest] <= cfg.clearance:
        return 0.0, Contact.INSERTED, divmod(nearest, rack.cols), None

    rim_center = None
    if not occ[nearest] and cfg.clearance < d[nearest] < rack.slot_radius + vial.radius:
        rim_center = centers[nearest]
    return rack.height, Contact.RACK_TOP, None, rim_center


def _resolve_contact(scene: SceneState, dt: float) -> float:
    cfg = scene.config
    if scene.held_offset is not None:
        bottom = scene.setpoint[:2] + scene.rig.tilt_gain * scene.held_offset
        support, kind, slot_rc, rim_center = _support(scene, bottom)
        pin = support + cfg.vial.grip_height
        scene.pin_z = pin
        grip_z = max(scene.setpoint[2], pin)
        if kind is Contact.INSERTED and grip_z < cfg.rack.height + cfg.vial.grip_height:
            scene.contact = Contact.INSERTED
            scene.contact_slot = slot_rc
        elif scene.setpoint[2] < pin:
            scene.contact = kind
            scene.contact_slot = slot_rc
        else:
            scene.contact = Contact.NONE
            scene.contact_slot = None
        penetration = max(0.0, pin - scene.setpoint[2])
        force_contact = cfg.contact.stiffness * penetration

        if rim_center is not None and penetration > 0 and dt > 0:
            away = bottom - rim_center
            norm = float(np.linalg.norm(away))
            if norm > 1e-9:
                drift = (cfg.contact.slip_rate / scene.rig.mu) * force_contact * dt
                scene.held_offset = scene.held_offset + (away / norm) * drift
                if np.max(np.abs(scene.held_offset)) > cfg.contact.max_offset:
                    scene.held_offset = None
                    scene.pin_z = None
                    scene.contact = Contact.NONE
                    scene.contact_slot = None
                    force_contact = 0.0
    else:
        scene.pin_z = 0.0
        penetration = max(0.0, -scene.setpoint[2])
        force_contact = cfg.contact.stiffness * penetration
        scene.contact = Contact.TABLE if penetration > 0 else Contact.NONE
        scene.contact_slot = None
    return force_contact


def _static_bias(pos: np.ndarray, holding: bool) -> np.ndarray:
    x, y, z = float(pos[0]), float(pos[1]), float(pos[2])
    payload = -0.25 if holding else 0.0
    return np.array([
        0.40 * np.sin(3.0 * x + 1.0) + 0.15 * y,
        0.40 * np.cos(2.0 * y + 0.5) + 0.10 * x,
        -4.0 + 0.30 * x + 0.20 * y + 0.05 * z + payload,
    ])


def tick(scene: SceneState, command: MoveCommand, dt: float) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    cfg = scene.config

    delta = np.asarray(command.target, dtype=float) - scene.setpoint
    dist = float(np.linalg.norm(delta))
    if dist > 1e-12:
        scene.speed = min(command.speed, scene.speed + command.accel * dt)
        step = min(scene.speed * dt, dist)
        scene.setpoint = scene.setpoint + delta * (step / dist)
        if step >= dist:
            scene.speed = 0.0
    else:
        scene.speed = 0.0

    force_contact = _resolve_contact(scene, dt)

    scene.sim_clock += dt
    pos = scene.setpoint.copy()
    if scene.pin_z is not None:
        pos[2] = max(pos[2], scene.pin_z)
    bias = _static_bias(pos, scene.held_offset is not None)
    noise = scene.rng.normal(0.0, cfg.noise.sigma_force, 3)
    return np.array([
        float(bias[0] + noise[0]),
        float(bias[1] + noise[1]),
        float(bias[2] + force_contact + noise[2]),
    ])


def release(scene: SceneState) -> None:
    """The seed release: a vial in contact ``INSERTED`` fills its slot, and
    the gripper lets go."""
    if scene.contact is Contact.INSERTED and scene.contact_slot is not None:
        scene.occupancy[scene.contact_slot] = True
    scene.held_offset = None
    scene.pin_z = None
    scene.contact = Contact.NONE
    scene.contact_slot = None

"""Trial controllers: one trial loop, three ways to close the descent.

Every trial runs through ``_run_trial``: overhead image, slot pick, grasp,
a modality ``prepare`` step, travel to hover, then descents until one ends
the trial. The modalities differ only in ``prepare`` and in the check that
closes each descent:

* ``visual``: ``prepare`` takes a second, close-up image to refine the slot
  estimate; the descent is open-loop and never stops, so visual is the
  loop's one-attempt case.
* ``force``: ``prepare`` records a stationary wrist-load baseline; a descent
  stops when the load deviates from it.
* ``tactile``: ``prepare`` captures the fingertip reference frames; each
  attempt first measures the in-gripper offset and compensates for it, and
  a descent stops when the contact patch travels.

A stop deeper than half the rack height is a safety stop. A shallower one
is a surface impact: the gripper backs off and tries the next cell of a
bounded lattice search, whose envelope is built at the first stop. A
completed descent releases the vial; a lost one ends the trial. One release
step sets ``final_offset``, the in-gripper offset at release (or at the end
of a trial that releases nothing).

Travel legs that cannot touch anything are jumped, and ``jump_setpoint``
charges their duration; descents are integrated at the force sensor rate
so contact, slip, and stop latency play out sample by sample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import KEY_CALIB, Pose3, RngStream, TactileConfig, WorkspaceConfig
from .force import (ForceBuffer, buffer_capacity, init_baseline, safety_stop,
                    update_and_check)
from .geometry import pixel_to_world
from .perception import (CnnWeights, NoValidSlotError,
                         accepted_rack_candidates, cht_params_for,
                         detect_circles, refined_camera_z, score_candidates,
                         select_target)
from .search import compute_search_bounds, next_trial_positions
from .simworld import (SceneState, SimError, advance_clock, draw_ahead,
                       impose_grasp, jump_setpoint, reference_frames,
                       release_and_evaluate, render_topdown, reset_trial,
                       sample_tactile, tick)
from .tactile import (FINGERS, CalibrationError, TactileCalibration,
                      apply_calibration, calibrate_mapping, find_contact,
                      track_deviation)

MODALITIES = ("visual", "force", "tactile")
RESULTS = ("inserted", "rack_top", "safety_stop", "released_failed",
           "lost_contact", "no_target")
PLACEMENTS = ("inserted", "resting_on_rack", "dropped_on_table", "still_held")


@dataclass(frozen=True)
class AttemptOutcome:
    """Where one descent aimed (world xy) and how it ended (one of
    ``RESULTS``)."""

    position: tuple[float, float]
    result: str


@dataclass(frozen=True)
class TrialRecord:
    modality: str
    trial_index: int
    attempts: int
    success: bool
    runtime_s: float
    outcomes: tuple[AttemptOutcome, ...]
    final_offset: tuple[float, float] | None
    placement: str | None  # one of PLACEMENTS, or None


def check_record(record: TrialRecord) -> None:
    """Raise ValueError unless ``record`` keeps the rules of the trial loop.

    Its modality, results and placement come from ``MODALITIES``,
    ``RESULTS`` and ``PLACEMENTS`` (placement may be None); its trial index
    is not negative; every result but the last is ``rack_top``; it spent at
    least one attempt and has one outcome per attempt, plus one when it
    released the vial (last result ``inserted`` or ``released_failed``)
    after the aims ran out; it succeeded exactly when its last result is
    ``inserted``; a trial that released the vial has a ``final_offset``;
    ``no_target`` is only ever the one outcome; and the placement is one
    the trial loop leaves after the last result.
    """
    if record.modality not in MODALITIES:
        raise ValueError(f"unknown modality {record.modality!r}")
    if record.trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {record.trial_index}")
    if record.attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {record.attempts}")
    if not record.outcomes:
        raise ValueError("no outcomes")
    if record.attempts > len(record.outcomes):
        raise ValueError(f"{record.attempts} attempts but only "
                         f"{len(record.outcomes)} outcomes")
    results = [o.result for o in record.outcomes]
    for result in results:
        if result not in RESULTS:
            raise ValueError(f"unknown result {result!r}")
    if record.placement is not None and record.placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {record.placement!r}")
    for i, result in enumerate(results[:-1], start=1):
        if result != "rack_top":
            raise ValueError(f"result {i} of {len(results)} is {result!r}, "
                             f"but only the last may end the trial")
    if results[-1] == "no_target" and len(results) > 1:
        raise ValueError(f"result {len(results)} of {len(results)} is "
                         f"'no_target', but it is only ever the one outcome")
    released = results[-1] in ("inserted", "released_failed")
    if len(results) > record.attempts + released:
        raise ValueError(f"{len(results)} outcomes for {record.attempts} "
                         f"attempts ending in {results[-1]!r}")
    if record.success != (results[-1] == "inserted"):
        raise ValueError(f"success is {record.success} but the last result "
                         f"is {results[-1]!r}")
    if released and record.final_offset is None:
        raise ValueError(f"{results[-1]} trial has no final_offset")
    leaves = {"inserted": ("inserted",),
              "released_failed": ("resting_on_rack", "dropped_on_table"),
              "lost_contact": ("dropped_on_table", "still_held"),
              "safety_stop": ("still_held",),
              "rack_top": ("dropped_on_table",),  # aims ran out, no vial
              "no_target": (None,)}[results[-1]]
    if record.placement not in leaves:
        raise ValueError(f"{results[-1]} trial has placement "
                         f"{record.placement!r}, not "
                         f"{' or '.join(map(repr, leaves))}")


def _project(config: WorkspaceConfig, pose: Pose3, u: float, v: float) -> np.ndarray:
    return np.array(pixel_to_world(u, v, config.camera, pose, config.rack.height))


def _perceive(config: WorkspaceConfig, image: np.ndarray, pose: Pose3,
              weights: CnnWeights) -> tuple:
    """The scored circle detections of an image taken from ``pose``, as a
    tuple, so that one shared through a ``seen`` cache cannot change."""
    candidates = detect_circles(image, cht_params_for(config, pose.z))
    return tuple(score_candidates(image, candidates, weights,
                                  config.cnn.crop_size))


def _pick(config: WorkspaceConfig, pose: Pose3, scored, gen: np.random.Generator,
          ref_uv: tuple[float, float] | None = None) -> np.ndarray:
    """Where the vacant slot ``select_target`` picks among ``scored`` sits in
    the world, for an image taken from ``pose``. Raises NoValidSlotError
    when nothing classifies as a vacant slot."""
    chosen = select_target(scored, config.cnn.theta_rack, config.cnn.theta_occ,
                           config.cnn.tie_eps, gen, ref_uv)
    return _project(config, pose, chosen.candidate.u, chosen.candidate.v)


def _descend_to_floor(scene: SceneState, xy, floor_z: float, check) -> str:
    """Shared descent loop; ``check`` is called after every tick and may
    return a terminal string ("stopped" / "lost") or None to continue.
    The time budget bounds the ramp from rest by ``descent_speed / accel``
    and adds 10 s of slack."""
    cfg = scene.config
    target = np.array([xy[0], xy[1], floor_z])
    budget = ((scene.setpoint[2] - floor_z) / cfg.motion.descent_speed
              + cfg.motion.descent_speed / cfg.motion.accel + 10.0)
    for _ in range(int(budget * cfg.force.rate) + 1):
        sample = tick(scene, target)
        verdict = check(sample)
        if verdict is not None:
            return verdict
        if scene.setpoint[2] - floor_z <= 1e-9:
            return "completed"
    raise SimError("descent failed to terminate within its time budget")


def _xy(position) -> tuple[float, float]:
    return (float(position[0]), float(position[1]))


def _aims(config: WorkspaceConfig, overview: Pose3, scored, target):
    """Where the descents of one trial aim: ``target``, then the lattice
    search around it, ring 1, ring 2, ... up to the first empty ring. A
    second aim is asked for only after a rack-top stop, so only then is the
    envelope built from the overview's accepted detections."""
    yield target
    neighbors = np.array([
        _project(config, overview, s.candidate.u, s.candidate.v)
        for s in accepted_rack_candidates(scored, config.cnn.theta_rack)])
    width, height = compute_search_bounds(neighbors, target, config.rack.pitch)
    for ring in itertools.count(1):
        cells = next_trial_positions(target, width, height,
                                     config.search.spacing, ring)
        if not cells:
            return
        yield from cells


def _run_trial(modality: str, config: WorkspaceConfig, stream: RngStream,
               weights: CnnWeights, trial_index: int, rig,
               prepare, attempt_descent, seen: dict) -> TrialRecord:
    """The one trial loop: pick and grasp, prepare, then descend at each of
    ``_aims`` in turn until the vial is released, lost or given up.

    ``seen`` maps the overview pose to the scene generator's state after
    the render and the scored candidates. It is shared by the trials of one
    index of a campaign, whose scenes ``reset_trial`` builds from one
    stream with the same draws, so they render one overview image. A hit
    skips the render, circle detection and scoring, and restores that
    state, so every later draw is the one a render would have left. The
    pick is always made.

    Right after the overview render (or the restore of its RNG state on a
    ``seen`` hit) the trial opens ``simworld.draw_ahead`` and keeps it open
    to the end: from there on its scene draws only standard normals.

    ``prepare(scene, sel_gen, target)`` runs after the overview pick and the
    grasp and returns ``(ctx, target)``; it may raise NoValidSlotError.
    ``attempt_descent(scene, ctx, position)`` runs one descent aimed at
    ``position`` and returns "completed", "stopped" or "lost". When the
    aims run out, the vial is released where the gripper is.
    """
    scene = reset_trial(config, stream.child(0), rig)
    sel_gen = stream.child(1).generator()
    hover = config.hover_z()
    outcomes: list[AttemptOutcome] = []
    attempts = 1

    def finish(placement: str | None, release_at=None) -> TrialRecord:
        """Release at ``release_at`` if given, then build the record."""
        final_offset = (None if scene.held_offset is None
                        else _xy(scene.held_offset))
        if release_at is not None:
            advance_clock(scene, config.timing.release_s)
            placement = release_and_evaluate(scene)
            outcomes.append(AttemptOutcome(
                _xy(release_at),
                "inserted" if placement == "inserted" else "released_failed"))
        return TrialRecord(
            modality=modality, trial_index=trial_index, attempts=attempts,
            success=outcomes[-1].result == "inserted",
            runtime_s=float(scene.sim_clock), outcomes=tuple(outcomes),
            final_offset=final_offset, placement=placement)

    overview = config.camera.pose()
    advance_clock(scene, config.timing.image_s)
    hit = seen.get(overview)
    if hit is None:
        image, _ = render_topdown(scene, overview)
        state = scene.rng.bit_generator.state
    else:
        state, scored = hit
        scene.rng.bit_generator.state = state
    with draw_ahead(scene):
        if hit is None:
            scored = _perceive(config, image, overview, weights)
            seen[overview] = (state, scored)
        try:
            target = _pick(config, overview, scored, sel_gen)
            advance_clock(scene, config.timing.grasp_s)
            ctx, target = prepare(scene, sel_gen, target)
        except NoValidSlotError:
            outcomes.append(AttemptOutcome((np.nan, np.nan), "no_target"))
            return finish(None)

        for attempts, position in enumerate(
                _aims(config, overview, scored, target), start=1):
            jump_setpoint(scene, [position[0], position[1], hover])
            verdict = attempt_descent(scene, ctx, position)
            if verdict == "completed" and scene.held_offset is not None:
                return finish(None, release_at=position)
            if verdict != "stopped":
                # Lost, or completed without the vial: report where it is.
                outcomes.append(AttemptOutcome(_xy(position), "lost_contact"))
                return finish("dropped_on_table" if scene.held_offset is None
                              else "still_held")
            # Stopped: classify by how deep the gripper got before the stop.
            if safety_stop(scene.grip_z, config):
                outcomes.append(AttemptOutcome(_xy(position), "safety_stop"))
                return finish("still_held")
            # Surface impact (or a spurious stop in free air): back off and
            # try the next aim.
            outcomes.append(AttemptOutcome(_xy(position), "rack_top"))
            jump_setpoint(scene, [scene.setpoint[0], scene.setpoint[1], hover])
        # The aims ran out: give the vial up where we are.
        if scene.held_offset is not None:
            return finish(None, release_at=scene.setpoint[:2])
        return finish("dropped_on_table")


def run_visual_trial(config: WorkspaceConfig, stream: RngStream,
                     weights: CnnWeights, trial_index: int,
                     seen: dict) -> TrialRecord:
    """Vision-only: overhead pick, close-up refinement, open-loop insert."""
    cam = config.camera
    depth_z = config.rack.height - config.motion.visual_floor + config.vial.grip_height

    def prepare(scene, sel_gen, coarse):
        # Drop the camera over the estimate and look again from half the
        # height: angular calibration error shrinks with the viewing distance.
        close_z = refined_camera_z(config)
        advance_clock(scene, (cam.z - close_z) / config.motion.speed)
        pose = Pose3(x=float(coarse[0]), y=float(coarse[1]), z=close_z)
        advance_clock(scene, config.timing.image_s)
        image, _ = render_topdown(scene, pose)
        return None, _pick(config, pose, _perceive(config, image, pose, weights),
                           sel_gen, ref_uv=(cam.cx, cam.cy))

    def attempt_descent(scene, ctx, position):
        return _descend_to_floor(scene, position, depth_z, lambda sample: None)

    return _run_trial("visual", config, stream, weights, trial_index, None,
                      prepare, attempt_descent, seen)


def run_force_trial(config: WorkspaceConfig, stream: RngStream,
                    weights: CnnWeights, trial_index: int,
                    seen: dict) -> TrialRecord:
    """Force-guarded insertion with lattice-search recovery."""

    def prepare(scene, sel_gen, target):
        # Stationary baseline with the vial already in hand.
        hold = scene.setpoint.copy()
        samples = [tick(scene, hold)
                   for _ in range(buffer_capacity(config.force))]
        return init_baseline(samples, config.force), target

    def attempt_descent(scene, baseline, position):
        buffer = ForceBuffer(buffer_capacity(config.force))

        def check(sample):
            stop, _ = update_and_check(buffer, sample, baseline, config.force)
            if stop:
                return "stopped"
            if scene.held_offset is None:
                return "lost"
            return None

        return _descend_to_floor(scene, position, config.descent_floor_z(), check)

    return _run_trial("force", config, stream, weights, trial_index, None,
                      prepare, attempt_descent, seen)


def _finger_centroids(scene: SceneState, refs: dict[str, np.ndarray],
                      tac: TactileConfig) -> dict[str, tuple[float, float]]:
    """One frame per finger, in ``FINGERS`` order (so the scene RNG is drawn
    left then right); returns the centroid of each finger's dominant
    contact patch, leaving out a finger with none."""
    regions = {f: find_contact(sample_tactile(scene, f), refs[f], tac)
               for f in FINGERS}
    return {f: r.centroid for f, r in regions.items() if r is not None}


def run_tactile_trial(config: WorkspaceConfig, stream: RngStream,
                      weights: CnnWeights, rig,
                      calibration: dict[str, TactileCalibration],
                      trial_index: int, seen: dict) -> TrialRecord:
    """Tactile-guided insertion: offset compensation plus slip-stop descents."""
    if rig is None or not rig.has_tactile:
        raise ValueError("tactile trials need a tactile-equipped rig")
    tac = config.tactile

    def prepare(scene, sel_gen, target):
        advance_clock(scene, config.timing.reference_s)
        return {f: reference_frames(scene, f) for f in FINGERS}, target

    def measure(scene, refs):
        """Settle, read both fingers, return (offset estimate, centroids)."""
        advance_clock(scene, config.timing.tactile_settle_s)
        centroids = _finger_centroids(scene, refs, tac)
        if not centroids:
            return None, centroids
        estimates = [apply_calibration(calibration[f], c, tac.width, tac.height)
                     for f, c in centroids.items()]
        return np.mean(estimates, axis=0), centroids

    def attempt_descent(scene, refs, position):
        offset_est, centroids = measure(scene, refs)
        if offset_est is None:
            return "lost"  # no contact on either finger before the descent
        corrected = np.asarray(position, dtype=float) - offset_est
        # Apply the compensation while still at hover height so the descent
        # itself is vertical; folding it into the descent would leave most of
        # the lateral move unexecuted at the moment the vial meets the rack.
        jump_setpoint(scene, [corrected[0], corrected[1], config.hover_z()])
        period = 1.0 / tac.rate
        next_sample = scene.sim_clock + period

        def check(sample):
            nonlocal next_sample
            if scene.held_offset is None:
                return "lost"
            if scene.sim_clock + 1e-12 < next_sample:
                return None
            next_sample += period
            stop, travel = track_deviation(_finger_centroids(scene, refs, tac),
                                           centroids, tac)
            if travel is None:
                return "lost"
            return "stopped" if stop else None

        return _descend_to_floor(scene, corrected, config.descent_floor_z(),
                                 check)

    return _run_trial("tactile", config, stream, weights, trial_index, rig,
                      prepare, attempt_descent, seen)


def calibrate_rig(config: WorkspaceConfig, rig) -> dict[str, TactileCalibration]:
    """Fit each finger's centroid-to-offset map on a grid of known grasps,
    drawn from the reserved calibration RNG stream of the config seed; a
    finger with contact in fewer than three grasps, or whose fit fails,
    raises CalibrationError naming it.

    After ``reset_trial`` the scene draws only the pixel noise of its
    tactile frames (the reference stacks, then both fingers at each
    grasp), so those run inside ``simworld.draw_ahead``."""
    if rig is None or not rig.has_tactile:
        raise ValueError("calibration needs a tactile-equipped rig")
    stream = RngStream(config.seed).child(KEY_CALIB)
    scene = reset_trial(config, stream.child(0), rig)
    reach = 3.0e-3
    grasps = [(ox, oy) for ox in (-reach, 0.0, reach)
              for oy in (-reach, 0.0, reach)]
    cents: dict[str, list] = {f: [] for f in FINGERS}
    offs: dict[str, list] = {f: [] for f in FINGERS}
    with draw_ahead(scene):
        refs = {f: reference_frames(scene, f) for f in FINGERS}
        for ox, oy in grasps:
            impose_grasp(scene, [ox, oy])
            for finger, c in _finger_centroids(scene, refs,
                                               config.tactile).items():
                cents[finger].append(c)
                offs[finger].append((ox, oy))
    fits = {}
    for f in FINGERS:
        if len(cents[f]) < 3:
            raise CalibrationError(
                f"{f} finger: contact in {len(cents[f])} of {len(grasps)} "
                f"calibration grasps, need 3")
        try:
            fits[f] = calibrate_mapping(np.asarray(cents[f]),
                                        np.asarray(offs[f]),
                                        config.tactile.width,
                                        config.tactile.height)
        except CalibrationError as exc:
            raise CalibrationError(f"{f} finger: {exc}") from None
    return fits

"""Config parsing/validation and the seeded RNG streams."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vialbench.core import (_SECTIONS, MAX_CAMERA_SIDE, MAX_CROP_SIZE,
                            MAX_TACTILE_SIDE, ConfigError, RngStream,
                            WorkspaceConfig, _field_types, dump_config,
                            load_config, split_rng)
from vialbench.force import (ForceBuffer, buffer_capacity, init_baseline,
                             update_and_check)
from vialbench.geometry import world_to_pixel
from vialbench.perception import (Candidate, ScoredCandidate, cht_params_for,
                                  refined_camera_z, select_target)
from vialbench.simworld import reset_trial


def test_empty_document_gives_defaults():
    cfg = load_config("")
    assert cfg.search.spacing == 0.0025
    assert cfg.force.threshold == 0.2
    assert cfg.force.rate == 125
    assert cfg.tactile.rate == 60
    assert cfg.seed == 42


def test_set_force_threshold():
    cfg = load_config("force.threshold = 0.2\n")
    assert cfg.force.threshold == 0.2
    cfg = load_config("force.threshold = 0.25\n")
    assert cfg.force.threshold == 0.25


def test_overlapping_slots_rejected():
    with pytest.raises(ConfigError) as err:
        load_config("rack.pitch = 0.016\n")  # 2 * slot_radius = 0.017
    assert "rack.pitch" in str(err.value)


def test_derived_geometry():
    cfg = load_config()
    assert cfg.clearance == pytest.approx(0.0015)
    assert cfg.hover_z() == pytest.approx(0.075)
    assert cfg.descent_floor_z() == pytest.approx(0.036)
    # a clean insertion pins the grip below the commanded descent floor
    assert cfg.descent_floor_z() > cfg.vial.grip_height


def test_comments_and_blank_lines():
    cfg = load_config("# a comment\n\nsearch.spacing = 0.003  # trailing\n")
    assert cfg.search.spacing == 0.003


@pytest.mark.parametrize("text,fragment", [
    ("search.spacing 0.002", "key = value"),
    ("spacing = 0.002", "section prefix"),
    ("nosuch.key = 1", "unknown section"),
    ("search.bogus = 1", "unknown key"),
    ("force.axis = z", "unknown key"),
    ("search.spacing = banana", "bad float"),
    ("force.rate = 1.5", "bad int"),
    ("force.rate = 1" + "0" * 309, "bad int"),  # no float holds it
    # only the plain ASCII numbers dump_config writes
    ("cnn.epochs = 1_0", "bad int value '1_0' for key 'cnn.epochs'"),
    ("seed = \u0663", "bad int value '\u0663' for key 'seed'"),
    ("seed = \uff13", "bad int value '\uff13' for key 'seed'"),
    ("search.spacing = 0.00_2", "bad float value '0.00_2'"),
    ("search.spacing = \u0660.\u0660\u0660\u0662", "bad float value"),
])
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ConfigError) as err:
        load_config(text)
    assert fragment in str(err.value)
    assert "line 1" in str(err.value)


FLOAT_KEYS = [f"{section}.{name}" for section, cls in _SECTIONS.items()
              for name, kind in _field_types(cls).items() if kind is float]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_floats_rejected(key, raw):
    """No range check is needed to stop a NaN or an infinity: the parser
    refuses them for every float key, from a file or an override."""
    want = f"bad float value {raw!r} for key {key!r}"
    with pytest.raises(ConfigError, match=f"line 1: {want}"):
        load_config(f"{key} = {raw}")
    with pytest.raises(ConfigError, match=f"override .*: {want}"):
        load_config("", [f"{key}={raw}"])


def test_error_reports_line_number():
    with pytest.raises(ConfigError) as err:
        load_config("search.spacing = 0.002\nforce.rate = x\n")
    assert "line 2" in str(err.value)


def test_leading_byte_order_mark_is_skipped():
    text = "seed = 3\nsearch.spacing = 0.002\n"
    assert load_config("\ufeff" + text) == load_config(text)
    with pytest.raises(ConfigError, match="^line 2: bad int value 'x'"):
        load_config("\ufeffseed = 3\nforce.rate = x\n")
    # only one mark, and only at the start of the text
    with pytest.raises(ConfigError, match=r"^line 1: key '\\ufeffseed'"):
        load_config("\ufeff\ufeffseed = 3\n")
    with pytest.raises(ConfigError, match=r"^line 2: key '\\ufeffseed'"):
        load_config("\n\ufeffseed = 3\n")


def test_overrides_win_over_document():
    cfg = load_config("search.spacing = 0.002", ["search.spacing = 0.004"])
    assert cfg.search.spacing == 0.004


def test_seed_override():
    assert load_config("seed = 7").seed == 7
    assert load_config("", ["seed = 9"]).seed == 9


def test_validation_rejects_out_of_range():
    for bad in ["camera.fx = -1", "vial.radius = 0.02", "search.spacing = 0",
                "tactile.threshold = 1.5", "contact.stiffness = 0",
                "force.rate = 0"]:  # tick's period is 1 / force.rate
        with pytest.raises(ConfigError):
            load_config(bad)


_VIEW = "x range plus rack footprint exceeds the camera view"
_VIEW_X = ("(depends on workspace.x_max, rack.footprint_w, rack.footprint_h, "
           "camera.z, rack.height, camera.width, camera.fx)")
_VIEW_Y = ("(depends on workspace.y_max, rack.footprint_w, rack.footprint_h, "
           "camera.z, rack.height, camera.height, camera.fy)")
_COVER = ("(depends on workspace.{0}_min, workspace.{0}_max, rack.footprint_w, "
          "rack.footprint_h, camera.z, rack.height, camera.{1}, camera.f{0}, "
          "camera.c{0})")
_SWEEP = ("rack.height, rack.slot_radius, camera.fx, cht.r_lo_factor, "
          "cht.r_hi_factor, camera.width, camera.height)")


@pytest.mark.parametrize("text, message", [
    # 0.30 m of x range plus the 0.15 m rack diagonal; 0.40 m in view
    ("workspace.x_max = 0.60", f"workspace.x_min: {_VIEW} {_VIEW_X}"),
    ("workspace.y_min = -0.10",
     f"workspace.y_min: {_VIEW.replace('x', 'y', 1)} {_VIEW_Y}"),
    ("camera.z = 0.3", f"workspace.x_min: {_VIEW} {_VIEW_X}"),
    # the view at rack height must sit over the workspace, not only span it
    ("camera.x = 0.9", "camera.x: view does not cover the x range plus rack "
     f"footprint {_COVER.format('x', 'width')}"),
    ("camera.y = -0.006", "camera.y: view does not cover the y range plus "
     f"rack footprint {_COVER.format('y', 'height')}"),
    # both sweeps a campaign runs: the overview's and the close-up's
    ("camera.refine_factor = 0.05", "camera.refine_factor: slot radii up to "
     f"304 px exceed half the 512x384 image (depends on camera.z, {_SWEEP}"),
    ("cht.r_hi_factor = 20", "camera.z: slot radii up to 218 px exceed half "
     f"the 512x384 image (depends on {_SWEEP}"),
    # 125 Hz for 3 ms rounds to no sample at all
    ("force.buffer_seconds = 0.003", "force.buffer_seconds: "
     "rate * buffer_seconds must round to at least one sample "
     "(depends on force.rate)"),
    ("cnn.tie_eps = -1", "cnn.tie_eps: must be >= 0"),
    # the tactile check reads at most one frame pair per 125 Hz force tick
    ("tactile.rate = 250", "tactile.rate: must not exceed the force rate it "
     "is sampled in (depends on force.rate)"),
    ("seed = -3", "seed: must be >= 0"),
    # one slot cannot be both the vacant target and an occupied neighbour
    ("rack.rows = 1\nrack.cols = 1", "rack.rows: rack needs at least two "
     "slots (depends on rack.cols)"),
    # a vial counts as inserted only below the rack top
    ("motion.floor_margin = 0.03", "motion.floor_margin: must be below the "
     "rack top (depends on rack.height)"),
    # a rule reading two keys names the one that broke it, or both
    ("cnn.batch_size = 0", "cnn.batch_size: must be >= 1"),
    ("camera.fy = 0", "camera.fy: focal length must be positive"),
    ("rack.slot_radius = 0", "vial.radius: vial must fit the slot "
     "(depends on rack.slot_radius)"),
    ("workspace.x_max = 0", "workspace.x_min: empty x range "
     "(depends on workspace.x_max)"),
    # slots of 1.09 px: a sweep from the 3 px floor to 2 px is empty
    ("camera.fx = 60", "camera.z: slot radii up to 2 px are below the 3 px "
     f"sweep floor (depends on {_SWEEP}"),
    # the largest radius overflows to infinitely many pixels
    ("cht.r_hi_factor = 1e308", "camera.z: slot radii up to inf px exceed "
     f"half the 512x384 image (depends on {_SWEEP}"),
])
def test_cross_key_rules_name_their_key(text, message):
    with pytest.raises(ConfigError) as err:
        load_config(text)
    assert str(err.value) == message


_SIZE_CAPS = [("camera.width", MAX_CAMERA_SIDE, "image"),
               ("camera.height", MAX_CAMERA_SIDE, "image"),
               ("tactile.width", MAX_TACTILE_SIDE, "frame"),
               ("tactile.height", MAX_TACTILE_SIDE, "frame"),
               ("cnn.crop_size", MAX_CROP_SIZE, "crop")]


@pytest.mark.parametrize("key, cap, what", _SIZE_CAPS)
def test_oversized_frames_and_crops_are_refused(key, cap, what):
    """A size up to its cap loads; one step past it is refused naming the
    key, before anything of that size exists."""
    section, name = key.split(".")
    assert getattr(getattr(load_config(f"{key} = {cap}"), section), name) == cap
    with pytest.raises(ConfigError) as err:
        load_config(f"{key} = {cap + 16}")
    assert str(err.value) == f"{key}: {what} too large, at most {cap} px"


@settings(max_examples=60, deadline=None)
@given(x_min=st.floats(0.2, 0.5), x_span=st.floats(0.01, 0.4),
       y_span=st.floats(0.01, 0.4), camera_z=st.floats(0.031, 1.2),
       camera_x=st.floats(0.2, 0.6), camera_y=st.floats(-0.05, 0.05),
       refine_factor=st.floats(0.001, 1.0),
       rate=st.integers(1, 400), buffer_seconds=st.floats(1e-4, 2.0),
       tie_eps=st.floats(-0.01, 0.1))
def test_accepted_configs_reset_a_trial_and_fill_a_force_window(
        x_min, x_span, y_span, camera_z, camera_x, camera_y, refine_factor,
        rate, buffer_seconds, tie_eps):
    try:
        config = load_config("", [
            f"workspace.x_min = {x_min!r}",
            f"workspace.x_max = {x_min + x_span!r}",
            f"workspace.y_min = {-y_span / 2!r}",
            f"workspace.y_max = {y_span / 2!r}",
            f"camera.z = {camera_z!r}",
            f"camera.x = {camera_x!r}",
            f"camera.y = {camera_y!r}",
            f"camera.refine_factor = {refine_factor!r}",
            f"force.rate = {rate}",
            f"force.buffer_seconds = {buffer_seconds!r}",
            f"cnn.tie_eps = {tie_eps!r}",
        ])
    except ConfigError:
        return
    cam = config.camera
    for key in range(3):
        # every slot of every rack pose lies in the overview image
        scene = reset_trial(config, RngStream(0).child(key))
        xy = scene.slots
        u, v = world_to_pixel(xy[:, 0], xy[:, 1], cam, cam.pose(),
                              config.rack.height)
        assert np.all((u >= 0) & (u <= cam.width) & (v >= 0) & (v <= cam.height))
    for cam_z in (cam.z, refined_camera_z(config)):
        assert 2 * cht_params_for(config, cam_z).r_max <= min(cam.width,
                                                              cam.height)
    capacity = buffer_capacity(config.force)
    baseline = init_baseline([np.ones(3)] * capacity, config.force)
    update_and_check(ForceBuffer(capacity), np.ones(3), baseline, config.force)
    # two equally vacant slots are a tie, broken by one draw
    tied = [ScoredCandidate(Candidate(u, 0.0, 8.0, 1.0), 0.9, 0.1)
            for u in (1.0, 2.0)]
    assert select_target(tied, 0.5, 0.5, config.cnn.tie_eps,
                         np.random.default_rng(0)) in tied


KEY_TYPES = {"seed": int, **{f"{section}.{name}": kind
                             for section, cls in _SECTIONS.items()
                             for name, kind in _field_types(cls).items()}}
_GRID = {float: [0.0, -1.0, 1e-9, 0.5, 1.0, 2.0, 1e9, -1e9],
         int: [0, -1, 1, 3, 100000]}


def check_single_override(key, value):
    """One override on the defaults is refused naming its key, or loads
    into a config whose Hough sweeps build at both camera heights."""
    try:
        config = load_config("", [f"{key} = {value!r}"])
    except ConfigError as err:
        assert key in re.findall(r"[\w.]+", str(err)), str(err)
        return
    for cam_z in (config.camera.z, refined_camera_z(config)):
        cht_params_for(config, cam_z)


def test_every_settable_value_is_counted():
    assert len(KEY_TYPES) == 85


@pytest.mark.parametrize("key", KEY_TYPES)
def test_every_refusal_names_the_key_set(key):
    for value in _GRID[KEY_TYPES[key]]:
        check_single_override(key, value)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(KEY_TYPES)))
def test_any_single_override_names_its_key_or_loads(data, key):
    value = data.draw(st.integers() if KEY_TYPES[key] is int else
                      st.floats(allow_nan=False, allow_infinity=False))
    check_single_override(key, value)


def test_round_trip():
    cfg = load_config("search.spacing = 0.0031\nseed = 11\n"
                      "noise.sigma_pixel = 1.25\n")
    again = load_config(dump_config(cfg))
    assert again == cfg


def test_round_trip_defaults():
    cfg = load_config()
    assert load_config(dump_config(cfg)) == cfg


# --- RNG streams ---------------------------------------------------------


def test_split_same_index_identical():
    a = split_rng(RngStream(42), 0).generator().random(1000)
    b = split_rng(RngStream(42), 0).generator().random(1000)
    assert np.array_equal(a, b)


def test_split_different_index_differs():
    a = split_rng(RngStream(42), 0).generator().random(1000)
    b = split_rng(RngStream(42), 1).generator().random(1000)
    assert not np.array_equal(a, b)


def test_split_repeatable_across_constructions():
    draws = None
    for _ in range(3):
        cur = split_rng(RngStream(42), 5).generator().random(50)
        if draws is not None:
            assert np.array_equal(draws, cur)
        draws = cur


def test_split_rejects_negative_index():
    with pytest.raises(ValueError):
        split_rng(RngStream(42), -1)


def test_child_paths_are_independent():
    s = RngStream(3)
    a = s.child(0, 1).generator().random(100)
    b = s.child(0, 2).generator().random(100)
    c = s.child(1, 1).generator().random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # and re-deriving the same path reproduces the sequence
    assert np.array_equal(a, RngStream(3).child(0, 1).generator().random(100))


def test_config_is_frozen():
    cfg = load_config()
    with pytest.raises(Exception):
        cfg.search.spacing = 1.0  # type: ignore[misc]
    assert isinstance(cfg, WorkspaceConfig)

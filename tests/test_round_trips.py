"""Property tests: every file format the package writes reads back equal."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vialbench.bench import record_from_dict, record_to_dict
from vialbench.control import MODALITIES, AttemptOutcome, TrialRecord
from vialbench.core import WorkspaceConfig, dump_config, load_config
from vialbench.pgm import read_pgm, write_pgm
from vialbench.tactile import (FINGERS, TactileCalibration, load_calibration,
                               save_calibration)

FEW = settings(max_examples=25, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trips")


# Fields whose validation leaves the whole range of their type open, so any
# drawn value gives a valid config.
_CONFIG_FIELDS = {
    "camera.x": finite,
    "noise.bias_angle_y": finite,
    "noise.sigma_pixel": non_negative,
    "contact.slip_rate": non_negative,
    "timing.release_s": non_negative,
    "render.distractors": st.integers(min_value=0, max_value=2 ** 40),
}


@FEW
@given(seed=st.integers(min_value=0, max_value=2 ** 63 - 1),
       values=st.fixed_dictionaries(_CONFIG_FIELDS))
def test_config_dump_load_round_trip(seed, values):
    config = WorkspaceConfig(seed=seed)
    for key, value in values.items():
        section, name = key.split(".")
        part = dataclasses.replace(getattr(config, section), **{name: value})
        config = dataclasses.replace(config, **{section: part})
    assert load_config(dump_config(config)) == config


@FEW
@given(image=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2,
                                           min_side=1, max_side=40)))
def test_pgm_write_read_round_trip(scratch, image):
    path = scratch / "image.pgm"
    write_pgm(path, image)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, image)


def _calibrations():
    cal = st.builds(
        lambda g, b, rms: TactileCalibration(np.array(g).reshape(2, 2),
                                             np.array(b), rms),
        st.lists(finite, min_size=4, max_size=4),
        st.lists(finite, min_size=2, max_size=2),
        non_negative)
    return st.fixed_dictionaries({f: cal for f in FINGERS})


@FEW
@given(cals=_calibrations())
def test_calibration_save_load_round_trip(scratch, cals):
    path = scratch / "fingertips.cal"
    save_calibration(path, cals)
    back = load_calibration(path)
    assert set(back) == set(FINGERS)
    for finger, cal in cals.items():
        np.testing.assert_array_equal(back[finger].gain, cal.gain)
        np.testing.assert_array_equal(back[finger].bias, cal.bias)
        assert back[finger].residual_rms == cal.residual_rms


_position = st.floats(allow_infinity=False)  # NaN marks "no target"
_outcome = st.builds(
    AttemptOutcome,
    position=st.tuples(_position, _position),
    result=st.sampled_from(["inserted", "rack_top", "safety_stop",
                            "released_failed", "lost_contact", "no_target"]))
_record = st.builds(
    TrialRecord,
    modality=st.sampled_from(MODALITIES),
    trial_index=st.integers(min_value=0, max_value=10 ** 6),
    attempts=st.integers(min_value=1, max_value=50),
    success=st.booleans(),
    runtime_s=non_negative,
    outcomes=st.lists(_outcome, min_size=1, max_size=6).map(tuple),
    final_offset=st.none() | st.tuples(finite, finite),
    placement=st.none() | st.sampled_from(["inserted", "resting_on_rack",
                                           "dropped_on_table", "still_held"]))


@FEW
@given(record=_record)
def test_record_dict_round_trip(record):
    line = json.dumps(record_to_dict(record), sort_keys=True)
    back = record_from_dict(json.loads(line))
    assert dataclasses.replace(back, outcomes=()) == \
        dataclasses.replace(record, outcomes=())
    assert [o.result for o in back.outcomes] == \
        [o.result for o in record.outcomes]
    # assert_array_equal treats NaN as equal to NaN
    np.testing.assert_array_equal([o.position for o in back.outcomes],
                                  [o.position for o in record.outcomes])

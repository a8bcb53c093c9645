"""Property tests: every file format the package writes reads back equal."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vialbench.bench import record_from_dict, record_to_dict
from vialbench.control import (MODALITIES, RESULTS,
                               AttemptOutcome, TrialRecord)
from vialbench.core import WorkspaceConfig, dump_config, load_config
from vialbench.pgm import read_pgm, write_pgm

FEW = settings(max_examples=25, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trips")


# Fields whose validation leaves the whole range of their type open, so any
# drawn value gives a valid config.
_CONFIG_FIELDS = {
    "workspace.source_x": finite,
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


def test_pgm_comment_may_precede_the_raster_delimiter(scratch):
    """A comment may follow maxval; the one whitespace byte after it, not
    the comment's own newline, starts the raster."""
    path = scratch / "comment.pgm"
    path.write_bytes(b"P5\n2 1\n255#c\n\n\x02\x03")
    assert read_pgm(path).tolist() == [[2, 3]]


_position = st.floats(allow_infinity=False)  # NaN marks "no target"


def _outcome(results):
    return st.builds(AttemptOutcome, position=st.tuples(_position, _position),
                     result=st.sampled_from(results))


# The placements each last result leaves, as the trial loop makes them.
_LEAVES = {"inserted": ("inserted",),
           "released_failed": ("resting_on_rack", "dropped_on_table"),
           "lost_contact": ("dropped_on_table", "still_held"),
           "safety_stop": ("still_held",),
           "rack_top": ("dropped_on_table",),
           "no_target": (None,)}


@st.composite
def _record(draw):
    """A record that keeps ``check_record``'s rules; every other field is
    drawn freely. Every result but the last is ``rack_top``, and
    ``no_target`` comes alone; the placement is one the last result
    leaves; a trial that ends in a release has a final offset and may
    hold one outcome more than its attempts (the release after the aims
    ran out); the others hold one outcome per attempt."""
    end = draw(_outcome(RESULTS))
    last = end.result
    tops = [] if last == "no_target" else draw(
        st.lists(_outcome(["rack_top"]), max_size=5))
    outcomes = (*tops, end)
    released = last in ("inserted", "released_failed")
    placement = draw(st.sampled_from(_LEAVES[last]))
    offset = st.tuples(finite, finite)
    if not released:
        offset = st.none() | offset
    attempts = len(outcomes)
    if released and attempts > 1:
        attempts -= draw(st.integers(min_value=0, max_value=1))
    return TrialRecord(
        modality=draw(st.sampled_from(MODALITIES)),
        trial_index=draw(st.integers(min_value=0, max_value=10 ** 6)),
        attempts=attempts,
        success=last == "inserted",
        runtime_s=draw(non_negative),
        outcomes=outcomes,
        final_offset=draw(offset),
        placement=placement)


@FEW
@given(record=_record())
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


_NOWHERE = AttemptOutcome((float("nan"), float("nan")), "no_target")
_STOP = AttemptOutcome((0.4, 0.0), "safety_stop")
_LOST = AttemptOutcome((0.4, 0.0), "lost_contact")
_TOP = AttemptOutcome((0.4, 0.0), "rack_top")

# Each breaks exactly one rule of a valid record.
_BREAKS = {
    "modality": lambda r: dataclasses.replace(r, modality="bogus"),
    "attempts": lambda r: dataclasses.replace(r, attempts=0),
    "no outcomes": lambda r: dataclasses.replace(r, outcomes=()),
    "result": lambda r: dataclasses.replace(
        r, outcomes=r.outcomes[:-1] + (AttemptOutcome(
            r.outcomes[-1].position, "bogus"),), success=False),
    "placement": lambda r: dataclasses.replace(r, placement="nowhere"),
    "success": lambda r: dataclasses.replace(r, success=not r.success),
    "no_target placed": lambda r: dataclasses.replace(
        r, outcomes=(_NOWHERE,), success=False, placement="dropped_on_table"),
    "safety_stop not held": lambda r: dataclasses.replace(
        r, outcomes=(_STOP,), success=False, placement=None),
    "release without final_offset": lambda r: dataclasses.replace(
        r, outcomes=r.outcomes[:-1] + (AttemptOutcome(
            r.outcomes[-1].position, "released_failed"),), success=False,
        final_offset=None),
    "trial ended before the last result": lambda r: dataclasses.replace(
        r, outcomes=(_LOST,) + r.outcomes, attempts=r.attempts + 1),
    "outcomes beyond attempts": lambda r: dataclasses.replace(
        r, outcomes=(_TOP, _TOP) + r.outcomes),
    "no_target after a rack_top": lambda r: dataclasses.replace(
        r, outcomes=(_TOP, _NOWHERE), attempts=2, success=False,
        placement=None),
    "lost_contact on the rack": lambda r: dataclasses.replace(
        r, outcomes=(_LOST,), attempts=1, success=False,
        placement="resting_on_rack"),
}


@FEW
@given(record=_record(), rule=st.sampled_from(sorted(_BREAKS)))
def test_record_breaking_one_rule_is_rejected(record, rule):
    line = json.dumps(record_to_dict(_BREAKS[rule](record)), sort_keys=True)
    with pytest.raises(ValueError):
        record_from_dict(json.loads(line))

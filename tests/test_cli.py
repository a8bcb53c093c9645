"""Exercises the command-line surface end to end (in-process)."""

import dataclasses
import threading

import numpy as np
import pytest

from vialbench import control
from vialbench.cli import main
from vialbench.pgm import write_pgm
from vialbench.perception import CnnWeights, load_weights, save_weights


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory, weights):
    path = tmp_path_factory.mktemp("cli") / "slot.weights"
    save_weights(path, weights)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------- exit codes


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as ex:
        run_cli("--version")
    assert ex.value.code == 0
    assert "vialbench" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["detect"],                      # --image/--weights are required
    ["run", "--modality", "sonar"],
    ["run", "--trials", "many"],
    ["run", "--calibration", "f.cal"],   # fingertips calibrate in every run
    ["calibrate", "--out", "f.cal"],     # and the fit is only printed
])
def test_usage_errors_exit_one(argv):
    with pytest.raises(SystemExit) as ex:
        run_cli(*argv)
    assert ex.value.code == 1


def test_runtime_errors_exit_two(tmp_path, weights_file, capsys):
    assert run_cli("run", "--trials", "0") == 2
    assert run_cli("detect", "--image", tmp_path / "missing.pgm",
                   "--weights", weights_file) == 2
    assert run_cli("train", "--config", tmp_path / "no-such.cfg") == 2
    assert run_cli("run", "--set", "rack.rows=0") == 2
    err = capsys.readouterr().err
    assert "vialbench:" in err


def test_malformed_input_files_exit_two_with_one_line(tmp_path, weights_file,
                                                      capsys):
    magic, rest = weights_file.read_bytes().split(b"\n", 1)
    bad = tmp_path / "gap.weights"
    bad.write_bytes(magic + b"\n\n" + rest)
    assert run_cli("run", "--trials", "1", "--weights", bad) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "gap.weights" in lines[0]


def test_out_of_memory_size_exits_two_with_one_line(capsys):
    """A million-pixel-square fingertip frame would ask numpy for 7.3 TiB;
    the config rules refuse it in one line naming the key, before anything
    is allocated or any thread starts."""
    assert run_cli("calibrate", "--set", "tactile.width=1000000",
                   "--set", "tactile.height=1000000") == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["vialbench: tactile.width: frame too large, at most 1024 px"]
    assert not [t for t in threading.enumerate()
                if t.name.startswith("vialbench-draw-ahead")]


@pytest.mark.parametrize("key, size", [
    ("camera.width", 4112), ("camera.height", 4112), ("tactile.width", 1040),
    ("tactile.height", 1040), ("cnn.crop_size", 144)])
def test_oversized_sizes_exit_two_naming_the_key(capsys, key, size):
    assert run_cli("run", "--trials", "1", "--set", f"{key}={size}") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"vialbench: {key}: ")


def test_memory_error_exits_two_with_one_line(capsys, monkeypatch):
    """An allocation numpy refuses mid-calibration is one line, and the
    calibration's draw-ahead thread is joined on the way out."""
    def refuse(scene, finger):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(control, "reference_frames", refuse)
    assert run_cli("calibrate") == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["vialbench: Unable to allocate 7.28 TiB for an array"]
    assert not [t for t in threading.enumerate()
                if t.name.startswith("vialbench-draw-ahead")]


@pytest.mark.parametrize("make_args, fragment", [
    pytest.param(lambda tmp: ["run", "--out", tmp / "file"],
                 "--out {tmp}/file: {tmp}/file is not a writable directory",
                 id="run-existing-file"),
    pytest.param(lambda tmp: ["run", "--out", tmp / "file" / "out"],
                 "--out {tmp}/file/out: {tmp}/file is not a writable "
                 "directory", id="run-under-a-file"),
    pytest.param(lambda tmp: ["train", "--out", tmp / "file" / "w.bin"],
                 "--out {tmp}/file/w.bin: {tmp}/file is not a writable "
                 "directory", id="train-under-a-file"),
    pytest.param(lambda tmp: ["train", "--out", tmp],
                 "--out {tmp}: is a directory", id="train-directory"),
    pytest.param(lambda tmp: ["train", "--dump-dataset", tmp / "file"],
                 "--dump-dataset {tmp}/file: {tmp}/file is not a writable "
                 "directory", id="train-dump-into-a-file"),
])
def test_bad_output_path_exits_two_before_any_work(tmp_path, capsys,
                                                   monkeypatch, make_args,
                                                   fragment):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    for name in ("vialbench.cli.train_discriminator",
                 "vialbench.bench.train_discriminator",
                 "vialbench.bench.calibrate_rig",
                 "vialbench.control.calibrate_rig"):
        monkeypatch.setattr(name, no_work)
    (tmp_path / "file").write_text("kept\n")
    code = run_cli(*make_args(tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        "vialbench: " + fragment.format(tmp=tmp_path)]
    assert (tmp_path / "file").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("command", ["detect", "run"])
def test_weights_header_cannot_demand_memory(tmp_path, capsys, command):
    """A header that declares 10**15 floats ahead of a few data bytes is
    refused as truncated, before anything of that size is read."""
    names = [f.name for f in dataclasses.fields(CnnWeights)]
    header = (f"{names[0]} 1000000 1000000 1000 1\n"
              + "".join(f"{name} 1\n" for name in names[1:]))
    huge = tmp_path / "huge.weights"
    huge.write_bytes(b"VIALCNN1\n" + header.encode() + b"data\n" + bytes(16))
    blank = tmp_path / "blank.pgm"
    write_pgm(blank, np.full((96, 96), 128, dtype=np.uint8))
    args = (["--image", blank] if command == "detect"
            else ["--trials", "1", "--out", tmp_path / "out"])
    assert run_cli(command, *args, "--weights", huge) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"vialbench: {huge}: truncated data for {names[0]}"]


_GOOD_RECORD = (b'{"attempts": 1, "final_offset": [0.0004, -0.0002], '
                b'"modality": "force", '
                b'"outcomes": [{"position": [0.1, 0.2], "result": "inserted"}], '
                b'"placement": "inserted", "runtime_s": 9.5, "success": true, '
                b'"trial_index": 0}')


@pytest.mark.parametrize("line, fragment", [
    (b'{"modality": "force"}', "KeyError"),
    (b"not json", "Expecting value"),
    (b"\xff\xfe", "not UTF-8 text (byte 0xff)"),
    pytest.param(_GOOD_RECORD.replace(b'"force"', b'"vis\xffal"'),
                 "not UTF-8 text (byte 0xff)", id="modality-not-utf8"),
    pytest.param(_GOOD_RECORD.replace(b'"force"', b'"bogus"'),
                 "unknown modality 'bogus'", id="modality-unknown"),
    pytest.param(_GOOD_RECORD.replace(b'"result": "inserted"',
                                      b'"result": "bogus"')
                 .replace(b'"placement": "inserted"', b'"placement": "nowhere"'),
                 "unknown result 'bogus'", id="result-and-placement-unknown"),
    pytest.param(_GOOD_RECORD.replace(b'"placement": "inserted"',
                                      b'"placement": "nowhere"'),
                 "unknown placement 'nowhere'", id="placement-unknown"),
    pytest.param(_GOOD_RECORD.replace(b'"result": "inserted"',
                                      b'"result": "released_failed"'),
                 "success is True but the last result is 'released_failed'",
                 id="success-contradicts-result"),
    pytest.param(_GOOD_RECORD.replace(b'"success": true', b'"success": false'),
                 "success is False but the last result is 'inserted'",
                 id="failure-contradicts-result"),
    pytest.param(_GOOD_RECORD.replace(b'"attempts": 1', b'"attempts": 0'),
                 "attempts must be at least 1", id="no-attempts"),
    # The report writes a CSV row per attempt number, so an unchecked count
    # would write rows until it ran out of time or disk.
    pytest.param(_GOOD_RECORD.replace(b'"attempts": 1',
                                      b'"attempts": ' + str(10**12).encode()),
                 f"{10**12} attempts but only 1 outcomes",
                 id="attempts-beyond-outcomes"),
    pytest.param(_GOOD_RECORD.replace(b'"result": "inserted"',
                                      b'"result": "no_target"')
                 .replace(b'"success": true', b'"success": false'),
                 "no_target trial has placement 'inserted'",
                 id="no-target-placed"),
    pytest.param(_GOOD_RECORD.replace(b'"result": "inserted"',
                                      b'"result": "safety_stop"')
                 .replace(b'"success": true', b'"success": false'),
                 "safety_stop trial has placement 'inserted'",
                 id="safety-stop-not-held"),
    pytest.param(_GOOD_RECORD.replace(
        b'[{"position": [0.1, 0.2], "result": "inserted"}]', b'[]'),
        "no outcomes", id="no-outcomes"),
    # Two outcomes the trial loop cannot produce: it ends at the first
    # result that is not a rack-top stop.
    pytest.param(_GOOD_RECORD.replace(b'"attempts": 1', b'"attempts": 2')
                 .replace(b'[{"position": [0.1, 0.2], "result": "inserted"}]',
                          b'[{"position": [0.1, 0.2], "result": "inserted"}, '
                          b'{"position": [0.1, 0.2], "result": "inserted"}]'),
                 "result 1 of 2 is 'inserted', but only the last may end "
                 "the trial", id="inserted-twice"),
    pytest.param(_GOOD_RECORD.replace(b'"success": true', b'"success": false')
                 .replace(b'"placement": "inserted"', b'"placement": "still_held"')
                 .replace(b'[{"position": [0.1, 0.2], "result": "inserted"}]',
                          b'[{"position": [0.1, 0.2], "result": "safety_stop"}, '
                          b'{"position": [0.1, 0.2], "result": "rack_top"}, '
                          b'{"position": [0.1, 0.2], "result": "rack_top"}]'),
                 "result 1 of 3 is 'safety_stop', but only the last may end "
                 "the trial", id="rack-top-after-safety-stop"),
    pytest.param(_GOOD_RECORD.replace(
        b'[{"position": [0.1, 0.2], "result": "inserted"}]',
        b'[{"position": [0.1, 0.2], "result": "rack_top"}, '
        b'{"position": [0.1, 0.2], "result": "rack_top"}, '
        b'{"position": [0.1, 0.2], "result": "inserted"}]'),
        "3 outcomes for 1 attempts ending in 'inserted'",
        id="outcomes-beyond-attempts"),
    # Placements the last result cannot leave, and a no_target after an
    # aim: the trial loop makes neither.
    pytest.param(_GOOD_RECORD.replace(b'"placement": "inserted"',
                                      b'"placement": "dropped_on_table"'),
                 "inserted trial has placement 'dropped_on_table', "
                 "not 'inserted'", id="inserted-on-the-table"),
    pytest.param(_GOOD_RECORD.replace(b'"result": "inserted"',
                                      b'"result": "released_failed"')
                 .replace(b'"success": true', b'"success": false'),
                 "released_failed trial has placement 'inserted', "
                 "not 'resting_on_rack' or 'dropped_on_table'",
                 id="released-failed-inserted"),
    pytest.param(_GOOD_RECORD.replace(b'"attempts": 1', b'"attempts": 2')
                 .replace(b'"success": true', b'"success": false')
                 .replace(b'"placement": "inserted"', b'"placement": null')
                 .replace(b'[{"position": [0.1, 0.2], "result": "inserted"}]',
                          b'[{"position": [0.1, 0.2], "result": "rack_top"}, '
                          b'{"position": [null, null], "result": "no_target"}]'),
                 "result 2 of 2 is 'no_target', but it is only ever the one "
                 "outcome", id="no-target-after-rack-top"),
    pytest.param(_GOOD_RECORD.replace(b'"result": "inserted"',
                                      b'"result": "lost_contact"')
                 .replace(b'"success": true', b'"success": false')
                 .replace(b'"placement": "inserted"',
                          b'"placement": "resting_on_rack"'),
                 "lost_contact trial has placement 'resting_on_rack', "
                 "not 'dropped_on_table' or 'still_held'",
                 id="lost-contact-on-the-rack"),
    pytest.param(_GOOD_RECORD.replace(b'"result": "inserted"',
                                      b'"result": "rack_top"')
                 .replace(b'"success": true', b'"success": false')
                 .replace(b'"placement": "inserted"',
                          b'"placement": "still_held"'),
                 "rack_top trial has placement 'still_held', "
                 "not 'dropped_on_table'", id="last-rack-top-still-held"),
    pytest.param(_GOOD_RECORD.replace(b'[0.0004, -0.0002]', b'null'),
                 "inserted trial has no final_offset", id="inserted-no-offset"),
    pytest.param(_GOOD_RECORD.replace(b'[0.0004, -0.0002]', b'null')
                 .replace(b'"result": "inserted"', b'"result": "released_failed"')
                 .replace(b'"success": true', b'"success": false'),
                 "released_failed trial has no final_offset",
                 id="released-no-offset"),
    pytest.param(_GOOD_RECORD.replace(b'"success": true', b'"success": "no"'),
                 "success must be true or false, got 'no'", id="success-string"),
    pytest.param(_GOOD_RECORD.replace(b'"success": true', b'"success": 1'),
                 "success must be true or false, got 1", id="success-int"),
    pytest.param(_GOOD_RECORD.replace(b'"runtime_s": 9.5', b'"runtime_s": "nan"'),
                 "runtime_s must be a number, got 'nan'", id="runtime-string"),
    pytest.param(_GOOD_RECORD.replace(b'"runtime_s": 9.5', b'"runtime_s": NaN'),
                 "NaN is not a JSON number", id="runtime-nan"),
    pytest.param(_GOOD_RECORD.replace(b'"runtime_s": 9.5', b'"runtime_s": 1e999'),
                 "runtime_s must be finite, got inf", id="runtime-overflow"),
    pytest.param(_GOOD_RECORD.replace(b'"runtime_s": 9.5',
                                      b'"runtime_s": ' + b'1' * 400),
                 "OverflowError: int too large to convert to float",
                 id="runtime-huge-int"),
    pytest.param(_GOOD_RECORD.replace(b'[0.0004, -0.0002]', b'[NaN, 0.0]'),
                 "NaN is not a JSON number", id="final-offset-nan"),
    pytest.param(_GOOD_RECORD.replace(b'[0.0004, -0.0002]', b'[-Infinity, 0.0]'),
                 "-Infinity is not a JSON number", id="final-offset-minus-infinity"),
    pytest.param(_GOOD_RECORD.replace(b'[0.0004, -0.0002]', b'[1e999, 0.0]'),
                 "final_offset must be finite, got inf", id="final-offset-overflow"),
    pytest.param(_GOOD_RECORD.replace(b'[0.1, 0.2]', b'[Infinity, 0.1]'),
                 "Infinity is not a JSON number", id="position-infinity"),
    pytest.param(_GOOD_RECORD.replace(b'[0.1, 0.2]', b'[0.1, -1e999]'),
                 "position must be finite, got -inf", id="position-overflow"),
    pytest.param(_GOOD_RECORD.replace(b'"trial_index": 0', b'"trial_index": -5'),
                 "trial_index must be >= 0, got -5", id="trial-index-negative"),
    pytest.param(_GOOD_RECORD.replace(b'"runtime_s": 9.5', b'"runtime_s": -1'),
                 "runtime_s must be finite and >= 0, got -1.0",
                 id="runtime-negative"),
    pytest.param(_GOOD_RECORD.replace(b'"attempts": 1', b'"attempts": "1"'),
                 "attempts must be an integer, got '1'", id="attempts-string"),
    pytest.param(_GOOD_RECORD.replace(b'"attempts": 1', b'"attempts": true'),
                 "attempts must be an integer, got True", id="attempts-bool"),
    pytest.param(_GOOD_RECORD.replace(b'"attempts": 1', b'"attempts": 1.5'),
                 "attempts must be an integer, got 1.5", id="attempts-float"),
    pytest.param(_GOOD_RECORD.replace(b'"trial_index": 0', b'"trial_index": "0"'),
                 "trial_index must be an integer, got '0'",
                 id="trial-index-string"),
    pytest.param(_GOOD_RECORD.replace(b'"trial_index": 0', b'"trial_index": false'),
                 "trial_index must be an integer, got False",
                 id="trial-index-bool"),
    pytest.param(_GOOD_RECORD.replace(b'[0.1, 0.2]', b'["0.1", 0.2]'),
                 "position must be a number, got '0.1'", id="position-string"),
    pytest.param(_GOOD_RECORD.replace(b'[0.1, 0.2]', b'[0.1]'),
                 "position must be a list of two numbers", id="position-short"),
    pytest.param(_GOOD_RECORD.replace(b'[0.0004, -0.0002]', b'[0.0004, null]'),
                 "final_offset must be a number, got None",
                 id="final-offset-null-entry"),
    # A repeated trial would count twice in every summary figure.
    pytest.param(_GOOD_RECORD, "force trial index 0 repeats line 1",
                 id="trial-repeated"),
])
def test_malformed_records_exit_two_with_one_line(tmp_path, capsys, line,
                                                  fragment):
    good = tmp_path / "good"
    records = tmp_path / "records.jsonl"
    first = _GOOD_RECORD.decode()
    records.write_text(first + "\n")
    assert run_cli("report", "--records", records, "--batches", 1,
                   "--out", good) == 0
    records.write_bytes((first + "\n\n").encode() + line + b"\n")
    # one batch, so only the bad line can make the report fail
    assert run_cli("report", "--records", records, "--batches", 1,
                   "--out", tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "records.jsonl: line 3:" in lines[0] and fragment in lines[0]


def test_report_too_few_trials_names_the_modality_and_makes_no_directory(
        tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    second = _GOOD_RECORD.replace(b'"trial_index": 0', b'"trial_index": 1')
    records.write_bytes(_GOOD_RECORD + b"\n" + second + b"\n")
    out = tmp_path / "out"
    assert run_cli("report", "--records", records, "--batches", 3,
                   "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "vialbench: force: cannot split 2 trials into 3 batches"]
    assert not out.exists()


@pytest.mark.parametrize("data, extra, fragment", [
    (b"seed = 42\n# two lines\n", ["--set", "rack.rows=x"],
     "override 'rack.rows=x': bad int value 'x' for key 'rack.rows'"),
    (b"seed = 42\nrack.rows = x\n", [],
     "ok.cfg: line 2: bad int value 'x' for key 'rack.rows'"),
    (b"seed = 42\nnosuch.key = 1\n", ["--set", "rack.rows=8"],
     "ok.cfg: line 2: unknown section 'nosuch'"),
    (b"seed = 42\n\xff\n", [], "ok.cfg: line 2: not UTF-8 text"),
    # numbers are plain ASCII, as dump_config writes them
    (b"cnn.epochs = 1_0\n", [],
     "ok.cfg: line 1: bad int value '1_0' for key 'cnn.epochs'"),
    ("seed = \u0663\n".encode(), [],  # an Arabic-Indic three
     "ok.cfg: line 1: bad int value '\u0663' for key 'seed'"),
])
def test_config_errors_name_their_source(tmp_path, capsys, data, extra,
                                         fragment):
    config = tmp_path / "ok.cfg"
    config.write_bytes(data)
    assert run_cli("run", "--config", config, *extra) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert fragment in lines[0]


def test_calibrate_reads_past_a_byte_order_mark(tmp_path, capsys):
    config = tmp_path / "bom.cfg"
    config.write_bytes("\ufeffseed = 3\n".encode())
    assert run_cli("calibrate", "--config", config) == 0
    with_mark = capsys.readouterr().out
    config.write_bytes(b"seed = 3\n")
    assert run_cli("calibrate", "--config", config) == 0
    assert capsys.readouterr().out == with_mark


@pytest.mark.parametrize("data, fragment", [
    (b"P5\n4 4\n255\n", "truncated PGM raster"),
    (b"P5\n# no end", "truncated PGM header"),
    (b"P2\n4 4\n255\n", "missing P5 magic"),
    (b"P512 1 255\n" + bytes(12), "bad PGM header byte b'1'"),
    (b"P5\n2 1\n255\x07\x02\x03", "bad PGM header byte b'\\x07'"),
])
def test_malformed_pgm_exits_two_naming_the_file(tmp_path, weights_file,
                                                 capsys, data, fragment):
    image = tmp_path / "bad.pgm"
    image.write_bytes(data)
    assert run_cli("detect", "--image", image, "--weights", weights_file) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "bad.pgm" in lines[0] and fragment in lines[0]


# A campaign small enough that an input the checks let through fails fast.
_QUICK = ["--set", "cnn.train_scenes=4", "--set", "cnn.epochs=1",
          "--trials", "1", "--batches", "1"]


def _weights_file(path, good, tensor, value):
    """``good`` with the first number of ``tensor`` set to ``value``."""
    weights = load_weights(good)
    getattr(weights, tensor).flat[0] = value
    save_weights(path, weights)
    return path


@pytest.mark.parametrize("make_args, fragment", [
    pytest.param(lambda tmp, w: ["--set", "workspace.source_x=inf"],
                 "bad float value 'inf' for key 'workspace.source_x'",
                 id="set-inf"),
    pytest.param(lambda tmp, w: ["--set", "cnn.tie_eps=nan"],
                 "bad float value 'nan' for key 'cnn.tie_eps'", id="set-nan"),
    pytest.param(lambda tmp, w: ["--set", "tactile.contact_floor=nan"],
                 "bad float value 'nan' for key 'tactile.contact_floor'",
                 id="set-nan-silent"),
    pytest.param(lambda tmp, w: ["--set", "force.threshold=-inf"],
                 "bad float value '-inf' for key 'force.threshold'",
                 id="set-minus-inf"),
    pytest.param(lambda tmp, w: ["--weights", _weights_file(
        tmp / "bad.weights", w, "fc3_b", np.nan)],
        "bad.weights: non-finite value in fc3_b", id="weights-nan"),
    pytest.param(lambda tmp, w: ["--weights", _weights_file(
        tmp / "bad.weights", w, "conv1_w", np.inf)],
        "bad.weights: non-finite value in conv1_w", id="weights-inf"),
])
def test_non_finite_inputs_exit_two_before_training(tmp_path, weights_file,
                                                    capsys, make_args,
                                                    fragment):
    code = run_cli("run", *_QUICK, *make_args(tmp_path, weights_file),
                   "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert fragment in lines[0]
    assert "training slot classifier" not in captured.out


_VIEW_X = ("(depends on workspace.x_max, rack.footprint_w, rack.footprint_h, "
           "camera.z, rack.height, camera.width, camera.fx)")
_COVER = ("(depends on workspace.{0}_min, workspace.{0}_max, rack.footprint_w, "
          "rack.footprint_h, camera.z, rack.height, camera.{1}, camera.f{0}, "
          "camera.c{0})")
_SWEEP = ("rack.height, rack.slot_radius, camera.fx, cht.r_lo_factor, "
          "cht.r_hi_factor, camera.width, camera.height)")


@pytest.mark.parametrize("extra, message", [
    (["--set", "workspace.x_max=0.60"], "vialbench: workspace.x_min: "
     f"x range plus rack footprint exceeds the camera view {_VIEW_X}"),
    (["--set", "force.buffer_seconds=0.003"], "vialbench: force.buffer_seconds: "
     "rate * buffer_seconds must round to at least one sample "
     "(depends on force.rate)"),
    (["--set", "cnn.tie_eps=-1"], "vialbench: cnn.tie_eps: must be >= 0"),
    (["--seed", "-3"], "vialbench: seed: must be >= 0"),
    # the view spans x 0.1995..0.6005 at rack height around camera.x = 0.4;
    # at 0.9 it misses the rack, so every trial would end no_target
    (["--set", "camera.x=0.9"], "vialbench: camera.x: "
     "view does not cover the x range plus rack footprint "
     f"{_COVER.format('x', 'width')}"),
    (["--set", "camera.y=0.01"], "vialbench: camera.y: "
     "view does not cover the y range plus rack footprint "
     f"{_COVER.format('y', 'height')}"),
    # close-up sweeps of about 24 GB and of 304 px radii
    (["--set", "camera.refine_factor=0.001"], "vialbench: camera.refine_factor: "
     "slot radii up to 15192 px exceed half the 512x384 image "
     f"(depends on camera.z, {_SWEEP}"),
    (["--set", "camera.refine_factor=0.05"], "vialbench: camera.refine_factor: "
     "slot radii up to 304 px exceed half the 512x384 image "
     f"(depends on camera.z, {_SWEEP}"),
    (["--set", "camera.z=0.0301"], "vialbench: workspace.x_min: "
     f"x range plus rack footprint exceeds the camera view {_VIEW_X}"),
    # slots of 1.09 px: the overview sweep from the 3 px floor to 2 px is
    # empty, which used to surface only after training
    (["--set", "camera.fx=60"], "vialbench: camera.z: slot radii up to 2 px "
     f"are below the 3 px sweep floor (depends on {_SWEEP}"),
])
def test_config_rules_exit_two_before_training(tmp_path, capsys, monkeypatch,
                                               extra, message):
    def no_detection(image, params):
        raise AssertionError("detection ran")

    for name in ("vialbench.control.detect_circles",
                 "vialbench.perception.pipeline.detect_circles"):
        monkeypatch.setattr(name, no_detection)
    code = run_cli("run", *_QUICK, "--modality", "force", *extra,
                   "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [message]
    assert "Traceback" not in captured.err
    assert "training slot classifier" not in captured.out


_CONV1 = "conv1_w is 8x1x5x5 but cnn.k1 = 4 needs 4x1x5x5"
_CONV2 = "conv2_w is 16x8x5x5 but cnn.k2 = 8 and cnn.k1 = 8 need 8x8x5x5"
_FC1 = "fc1_w is 64x512 but cnn.k2 = 16 and cnn.crop_size = 48 need 144x512"


@pytest.mark.parametrize("extra, fragment", [
    (["--set", "cnn.k1=4"], _CONV1),
    (["--set", "cnn.k2=8"], _CONV2),
    (["--set", "cnn.crop_size=48"], _FC1),
])
def test_run_rejects_weights_of_another_network_before_any_trial(
        tmp_path, weights_file, capsys, monkeypatch, extra, fragment):
    def no_calibration(config, rig):
        raise AssertionError("calibration ran")

    monkeypatch.setattr("vialbench.bench.calibrate_rig", no_calibration)
    code = run_cli("run", "--trials", "1", "--batches", "1", "--weights",
                   weights_file, *extra, "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [f"vialbench: weights: {fragment}"]
    assert "Traceback" not in captured.err
    assert "campaign:" not in captured.out


@pytest.mark.parametrize("extra, fragment", [
    (["--set", "cnn.k1=4"], _CONV1),
    (["--set", "cnn.crop_size=48"], _FC1),
])
def test_detect_rejects_weights_of_another_network(tmp_path, weights_file,
                                                   capsys, monkeypatch,
                                                   extra, fragment):
    def no_detection(image, params):
        raise AssertionError("detection ran")

    monkeypatch.setattr("vialbench.cli.detect_circles", no_detection)
    blank = tmp_path / "blank.pgm"
    write_pgm(blank, np.full((96, 96), 128, dtype=np.uint8))
    code = run_cli("detect", "--image", blank, "--weights", weights_file,
                   *extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [f"vialbench: weights: {fragment}"]
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------- detect


@pytest.mark.parametrize("camera_z, fragment", [
    ("nan", "--camera-z must be finite, got nan"),
    ("inf", "--camera-z must be finite, got inf"),
    # 0.1 mm above the rack: slot radii up to 71 400 px
    ("0.0301", "--camera-z 0.0301: slot radii up to"),
    ("0.02", "--camera-z 0.02: camera must sit above the rack plane"),
])
def test_detect_rejects_camera_z_before_detection(tmp_path, weights_file,
                                                  capsys, monkeypatch,
                                                  camera_z, fragment):
    def no_detection(image, params):
        raise AssertionError("detection ran")

    monkeypatch.setattr("vialbench.cli.detect_circles", no_detection)
    blank = tmp_path / "blank.pgm"
    write_pgm(blank, np.full((96, 96), 128, dtype=np.uint8))
    code = run_cli("detect", "--image", blank, "--weights", weights_file,
                   "--camera-z", camera_z)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert lines[0].startswith(f"vialbench: {fragment}")


def test_detect_blank_image_reports_zero(tmp_path, weights_file, capsys):
    blank = tmp_path / "blank.pgm"
    write_pgm(blank, np.full((96, 96), 128, dtype=np.uint8))
    assert run_cli("detect", "--image", blank, "--weights", weights_file) == 0
    assert "0 candidates" in capsys.readouterr().out


def test_detect_prints_scored_circle(tmp_path, weights_file, capsys):
    yy, xx = np.mgrid[0:128, 0:128]
    d = np.hypot(xx - 60.0, yy - 70.0)
    disk = 20.0 + np.clip(11.0 - d + 0.5, 0.0, 1.0) * 200.0
    image = tmp_path / "disk.pgm"
    write_pgm(image, disk.astype(np.uint8))
    assert run_cli("detect", "--image", image, "--weights", weights_file) == 0
    out = capsys.readouterr().out
    assert "candidates" in out
    assert "p_rack=" in out and "u=  60" in out


# ---------------------------------------------------------------- train


def test_train_writes_weights_and_dump(tmp_path, capsys):
    out = tmp_path / "tiny.weights"
    dump = tmp_path / "crops"
    code = run_cli("train", "--out", out, "--dump-dataset", dump,
                   "--set", "cnn.train_scenes=4", "--set", "cnn.epochs=2")
    assert code == 0
    assert load_weights(out).conv1_w.shape[0] > 0
    index = dump / "index.csv"
    assert index.exists()
    lines = index.read_text().splitlines()
    assert lines
    name, label = lines[0].split(",")
    assert (dump / name).exists()
    assert int(label) in (0, 1, 2)
    out_text = capsys.readouterr().out
    assert "trained on" in out_text and "dumped" in out_text


# ---------------------------------------------------------------- calibrate


def test_calibrate_prints_both_residuals_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("calibrate") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["left", "right"]
    assert all(" residual rms " in line and line.endswith(" um")
               for line in lines)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("make_args", [
    pytest.param(lambda tmp, w: ["calibrate"], id="calibrate"),
    pytest.param(lambda tmp, w: ["run", "--trials", "1", "--batches", "1",
                                 "--modality", "tactile", "--weights", w,
                                 "--out", tmp / "out"], id="run"),
])
def test_calibration_without_contacts_names_the_finger(tmp_path, weights_file,
                                                       capsys, make_args):
    # No contact patch can reach this area, so no grasp sees contact.
    code = run_cli(*make_args(tmp_path, weights_file),
                   "--set", "tactile.min_area=1e9")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        "vialbench: left finger: contact in 0 of 9 calibration grasps, need 3"]
    assert "Traceback" not in captured.err
    assert "campaign:" not in captured.out


@pytest.mark.parametrize("make_args", [
    pytest.param(lambda tmp: ["calibrate"], id="calibrate"),
    pytest.param(lambda tmp: ["run", "--trials", "1", "--batches", "1",
                              "--modality", "tactile", "--out", tmp / "out"],
                 id="run"),
])
def test_collinear_calibration_names_the_finger_before_training(
        tmp_path, capsys, monkeypatch, make_args):
    # At threshold 0 every pixel is contact, so all nine centroids of a
    # finger sit at the frame centre and its fit has no plane to pin.
    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    for name in ("vialbench.cli.train_discriminator",
                 "vialbench.bench.train_discriminator"):
        monkeypatch.setattr(name, no_training)
    code = run_cli(*make_args(tmp_path), "--set", "tactile.threshold=0")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        "vialbench: left finger: calibration centroids are collinear"]
    assert "training slot classifier" not in captured.out


# ---------------------------------------------------------------- run/report


def test_run_is_reproducible_and_report_rebuilds(tmp_path, weights_file, capsys):
    common = ["run", "--trials", "4", "--modality", "visual",
              "--weights", weights_file]
    assert run_cli(*common, "--out", tmp_path / "a") == 0
    assert run_cli(*common, "--out", tmp_path / "b") == 0
    for name in ("summary.csv", "histogram.csv", "cumulative.csv",
                 "records.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name

    assert run_cli("report", "--records", tmp_path / "a" / "records.jsonl",
                   "--out", tmp_path / "rebuilt") == 0
    assert (tmp_path / "rebuilt" / "summary.csv").read_bytes() == \
        (tmp_path / "a" / "summary.csv").read_bytes()
    out = capsys.readouterr().out
    assert "campaign: 4 trials" in out
    assert "rebuilt report" in out

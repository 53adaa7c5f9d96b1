"""Command line workflow: argument handling, exit codes, artifact round trips."""

import functools
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wattcount
from wattcount import (
    MIN_FRAMES,
    DetectionLog,
    keyed_uniforms,
    load_agent_pair,
    load_profile,
    load_trace,
    save_detection_log,
)
from wattcount.cli import _Usage, build_parser, load_counter_set, main, parse_horizons

TAU = ["--tau-seconds", "120", "--horizon-windows", "8"]

PINNED_INGEST = {
    "log.jsonl": "65a91a554926468c2f056e39b723a5c34cc4e31fdf42eaafedcfedcb0c2d0354",
    "scene.csv": "0d763dd88d6652b34fa40738dd993634f6d4785696459755b02a2367d4b351fe",
    "scene.meta.json": "8e66f22c77692901043fe958f1a558a0ef56796a3784b0ca462c80770a6e2ccb",
}


def cli(*argv):
    return main([str(a) for a in argv])


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this package with the given arguments."""
    src = str(Path(wattcount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def _scipy_loaded_by(code: str) -> str:
    """Run code in a fresh interpreter; the scipy modules it left loaded."""
    code += "\nprint(sorted(m for m in ('scipy.special', 'scipy.stats') if m in sys.modules))"
    out = _python("-c", code)
    out.check_returncode()
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_stats_unloaded():
    # every command is its own process; scipy.special and scipy.stats would
    # be most of its start-up
    assert _scipy_loaded_by("import sys, wattcount.cli") == "[]"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scene, counter set, and profiles shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    counters = root / "counters.json"
    counters.write_text(json.dumps([
        {"counter_id": "cheap", "energy_per_frame_j": 0.2,
         "ratio_mean": 0.85, "ratio_std": 0.1},
        {"counter_id": "gold", "energy_per_frame_j": 2.0},
    ]))
    scene = root / "scene.csv"
    rc = cli(
        "synth", "--out", scene, "--n-windows", 48, "--seed", 7,
        "--base-rate", 4.0, "--amplitude", 2.0, "--period-windows", 8, *TAU,
    )
    assert rc == 0
    profiles = root / "profiles"
    rc = cli(
        "profile", "--trace", scene, "--counters", counters, "--out-dir", profiles,
        "--train-horizons", "0-2", "--threshold", "0.25", "--min-pairs", 24,
        "--seed", 11, *TAU,
    )
    assert rc == 0
    return root, scene, counters, profiles


def test_commands_that_draw_no_normals_leave_scipy_unloaded(workspace, tmp_path):
    # synth, report and the golden planner (a noiseless counter) need no
    # normal quantile beyond z_score's, so they never import scipy
    root, scene, counters, profiles = workspace
    runs = tmp_path / "runs"
    commands = {
        "synth": ["synth", "--out", tmp_path / "s.csv", "--n-windows", 16, "--seed", 3, *TAU],
        "simulate": [
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "golden", "--golden-counter", "gold", "--budget-wh", 1.0,
            "--horizons", 3, "--out", runs / "golden.csv", "--seed", 2, *TAU,
        ],
        "report": ["report", "--runs-dir", runs, "--out", tmp_path / "report.csv"],
    }
    for name, argv in commands.items():
        call = f"main({[str(a) for a in argv]!r})"
        code = f"import sys\nfrom wattcount.cli import main\nassert {call} == 0"
        assert _scipy_loaded_by(code) == "[]", name


@pytest.mark.parametrize("case, loaded", [
    ("profile", "[]"), ("fronts", "[]"), ("plan", "[]"),
    ("oracle", "[]"), ("uni", "[]"), ("rl", "[]"),
    ("train", "['scipy.special']"), ("library", "['scipy.special']"),
])
def test_scipy_special_loads_only_past_the_port_budget(workspace, agents_dir, tmp_path,
                                                       case, loaded):
    # commands draw their first cli.PORT_DRAWS normals through the ndtri
    # port; past that, as library code at its first draw, they import scipy
    root, scene, counters, profiles = workspace
    pipe = ["--trace", scene, "--counters", counters, *TAU]
    fitted = [*pipe, "--profiles-dir", profiles, "--seed", 5]
    run = ["simulate", *fitted, "--budget-wh", 0.05, "--horizons", "3-4",
           "--out", tmp_path / "r.csv"]
    argv = {
        "profile": ["profile", *pipe, "--out-dir", tmp_path, "--train-horizons", "0-2",
                    "--threshold", 0.25, "--min-pairs", 24, "--seed", 11],
        "fronts": ["fronts", *fitted, "--horizon", 3, "--out-dir", tmp_path],
        "plan": ["plan", *fitted, "--horizon", 3, "--budget-wh", 0.05, "--out-dir", tmp_path],
        "oracle": [*run, "--planner", "oracle"],
        "uni": [*run, "--planner", "uni", "--validation-horizon", 5],
        "rl": [*run, "--planner", "rl", "--agents", agents_dir / "agents_0.05wh.json"],
        "train": ["train", *fitted, "--train-horizons", "0-2", "--budget-wh", 0.05,
                  "--episodes", 5, "--out-dir", tmp_path],
    }
    if case == "library":
        code = "import sys\nfrom wattcount import keyed_normals\nkeyed_normals(1, 2, [3], 0.0, 1.0)"
    else:
        code = "import sys\nfrom wattcount import cli\n"
        if case == "train":
            # train draws about 5k normals on this small scene
            code += "cli.PORT_DRAWS = 1_000\n"
        code += f"assert cli.main({[str(a) for a in argv[case]]!r}) == 0"
    assert _scipy_loaded_by(code) == loaded


def test_port_switch_changes_no_bits(tmp_path):
    # the draw that would exceed the budget imports scipy.special; before,
    # across and after the switch, and in a process that loaded scipy first
    # (a miss-floor counter's scipy.stats), the draws are scipy's bits
    shapes = [(), (20, 20), (0,), (500,), (300,), (2, 150), (700,)]
    miss_floor = ("from wattcount import CounterModel, observe_counts\n"
                  "observe_counts([3, 4], [0, 1], CounterModel('m', 1.0, miss_floor=0.1), 1)\n")
    script = """import json, math, sys
import numpy as np
from wattcount import _rng
{first}_rng.set_port_budget({budget})
draws, log = [], []
for shape in {shapes!r}:
    idx = np.arange(math.prod(shape)).reshape(shape) * 13 + 5
    draws.append(_rng.keyed_normals(7, 3, idx, 1.5, 0.25).tobytes())
    log.append(["scipy.special" in sys.modules, _rng._port_draws_left])
open({out!r}, "wb").write(b"".join(draws))
open({out!r} + ".json", "w").write(json.dumps(log))
"""
    runs = {
        name: (first, budget, tmp_path / name)
        for name, first, budget in [("port", "", 1_000), ("rerun", "", 1_000),
                                    ("scipy_first", miss_floor, 10**6)]
    }
    for first, budget, out in runs.values():
        _scipy_loaded_by(script.format(first=first, budget=budget, shapes=shapes, out=str(out)))
    from scipy.special import ndtri

    want = b"".join(
        (ndtri(keyed_uniforms(7, 3, np.arange(math.prod(s)).reshape(s) * 13 + 5)) * 0.25
         + 1.5).tobytes()
        for s in shapes
    )
    for name, (_, _, out) in runs.items():
        assert out.read_bytes() == want, name
    log = {name: json.loads(Path(f"{out}.json").read_text()) for name, (_, _, out) in runs.items()}
    assert log["port"] == [[False, 999], [False, 599], [False, 599], [False, 99],
                           [True, 99], [True, 99], [True, 99]]
    assert log["rerun"] == log["port"]
    assert log["scipy_first"] == [[True, 10**6]] * len(shapes)


class TestParseHorizons:
    def test_ranges_and_singles(self):
        assert parse_horizons("--horizons", "0-2,5") == [0, 1, 2, 5]
        assert parse_horizons("--horizons", "3") == [3]
        assert parse_horizons("--horizons", "4-4") == [4]

    def test_backward_range_rejected(self):
        with pytest.raises(_Usage, match="^--horizons: bad range '5-2'$"):
            parse_horizons("--horizons", "5-2")

    def test_empty_rejected(self):
        with pytest.raises(_Usage, match="^--train-horizons: no indices given$"):
            parse_horizons("--train-horizons", ",")

    @pytest.mark.parametrize("text, index", [("3,3", 3), ("0-2,1", 1), ("0,1-2,4,2-3", 2)])
    def test_repeated_index_named(self, text, index):
        with pytest.raises(_Usage) as exc:
            parse_horizons("--horizons", text)
        assert str(exc.value) == f"--horizons: index {index} repeated in {text!r}"

    @pytest.mark.parametrize("text, part", [
        ("4-5-6", "4-5-6"), ("-1", "-1"), ("1-", "1-"), ("x", "x"), ("0-2,3-b", "3-b"),
        ("2.5", "2.5"),
    ])
    def test_malformed_part_named(self, text, part):
        with pytest.raises(_Usage) as exc:
            parse_horizons("--windows", text)
        assert str(exc.value) == f"--windows: bad index {part!r}: expected N or N-M"


class TestLoadCounterSet:
    def test_defaults_fill_in(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps([{"counter_id": "x", "energy_per_frame_j": 1.0}]))
        (model,) = load_counter_set(p)
        assert model.ratio_mean == 1.0 and model.miss_floor == 0.0

    def test_counters_come_back_in_id_order(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps([{"counter_id": cid, "energy_per_frame_j": 1.0}
                                 for cid in ("mid", "cheap", "gold")]))
        assert [c.counter_id for c in load_counter_set(p)] == ["cheap", "gold", "mid"]

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps([
            {"counter_id": "x", "energy_per_frame_j": 1.0},
            {"counter_id": "x", "energy_per_frame_j": 2.0},
        ]))
        with pytest.raises(_Usage, match="duplicate"):
            load_counter_set(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(_Usage, match="missing artifact"):
            load_counter_set(tmp_path / "absent.json")

    def test_truncated_json_names_the_file(self, workspace, tmp_path, capsys):
        _, scene, _, _ = workspace
        p = tmp_path / "counters.json"
        p.write_text('[{"counter_id": "x", "energy_per_frame_j": ')
        with pytest.raises(_Usage, match=f"^{re.escape(str(p))}: Expecting value: line 1"):
            load_counter_set(p)
        rc = cli("profile", "--trace", scene, "--counters", p, "--out-dir", tmp_path / "pr",
                 "--seed", 1, *TAU)
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"{p}: Expecting")

    def test_non_array_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}")
        with pytest.raises(_Usage, match="nonempty JSON array"):
            load_counter_set(p)

    @pytest.mark.parametrize("entry, field", [
        ({"energy_per_frame_j": 1.0}, "counter_id"),
        ({"counter_id": 7, "energy_per_frame_j": 1.0}, "counter_id"),
        ({"counter_id": "y"}, "energy_per_frame_j"),
        ({"counter_id": "y", "energy_per_frame_j": "lots"}, "energy_per_frame_j"),
        ({"counter_id": "y", "energy_per_frame_j": 1.0, "ratio_std": [0.1]}, "ratio_std"),
    ])
    def test_bad_field_names_file_entry_and_field(self, workspace, tmp_path, capsys,
                                                  entry, field):
        _, scene, _, _ = workspace
        p = tmp_path / "bad_counters.json"
        p.write_text(json.dumps([{"counter_id": "x", "energy_per_frame_j": 1.0}, entry]))
        rc = cli("profile", "--trace", scene, "--counters", p, "--out-dir", tmp_path / "pr",
                 "--seed", 1, *TAU)
        assert rc == 2
        err = capsys.readouterr().err
        where = f"{p}: counter entry 1: "
        assert f"{where}{field}: expected " in err or f"{where}missing key {field!r}" in err

    def test_unknown_key_exits_2(self, workspace, tmp_path, capsys):
        # a misspelt optional field used to fall back to its default silently
        _, scene, _, _ = workspace
        p = tmp_path / "typo.json"
        p.write_text(json.dumps([
            {"counter_id": "x", "energy_per_frame_j": 1.0, "ratio_men": 0.5, "note": "?"},
        ]))
        rc = cli("profile", "--trace", scene, "--counters", p, "--out-dir", tmp_path / "pr",
                 "--seed", 1, *TAU)
        assert rc == 2
        assert f"{p}: counter entry 0: unknown keys: 'note', 'ratio_men'" in capsys.readouterr().err
        assert not (tmp_path / "pr").exists()

    @pytest.mark.parametrize("counter_id", ["", "a,b", "a\nb", "x/../../escape"])
    def test_unsafe_counter_id_exits_2(self, workspace, tmp_path, capsys, counter_id):
        _, scene, _, _ = workspace
        p = tmp_path / "bad_ids.json"
        p.write_text(json.dumps([{"counter_id": counter_id, "energy_per_frame_j": 1.0}]))
        rc = cli("profile", "--trace", scene, "--counters", p, "--out-dir", tmp_path / "pr",
                 "--seed", 1, *TAU)
        assert rc == 2
        err = capsys.readouterr().err
        assert str(p) in err and "entry 0" in err and "counter_id" in err


class TestSynth:
    def test_repeat_is_byte_identical(self, workspace, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert cli("synth", "--out", out, "--n-windows", 8, "--seed", 3, *TAU) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".meta.json").exists()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli("synth", "--out", a, "--n-windows", 8, "--seed", 3, *TAU)
        cli("synth", "--out", b, "--n-windows", 8, "--seed", 4, *TAU)
        assert a.read_bytes() != b.read_bytes()


class TestIngest:
    def test_counts_objects_inside_roi(self, tmp_path):
        # one box fixed inside the ROI and one far outside, every second
        frames = tuple(
            ((10.0, 10.0, 20.0, 20.0, "person"), (500.0, 500.0, 510.0, 510.0, "person"),)
            for _ in range(960)
        )
        log_path = tmp_path / "log.jsonl"
        save_detection_log(DetectionLog(tuple(float(t) for t in range(960)), frames), log_path)
        out = tmp_path / "scene.csv"
        rc = cli(
            "ingest", "--log", log_path, "--out", out, "--roi", "0,0,100,100",
            "--travel-seconds", 1.0, "--object-class", "person", *TAU,
        )
        assert rc == 0
        trace, tau = load_trace(out)
        assert tau == 120
        assert trace.counts.min() == 1 and trace.counts.max() == 1

    @pytest.mark.parametrize("bad_line, message", [
        ('{"boxes": []}', "missing key 'ts'"),
        ('{"ts": 1.0, "boxes": [{"x0": 0, "y0": 0, "x1": 1, "class": "person"}]}',
         "missing key 'y1'"),
        ("[1, 2]", "expected a JSON object"),
        ('{"ts": 1.0, "boxes": [[0, 0, 1, 1, "person"]]}',
         "'boxes' must be a list of JSON objects"),
        ('{"ts": 1.0, "boxes": 3}', "'boxes' must be a list of JSON objects"),
        ('{"ts": null, "boxes": []}', "'ts' must be a number, got None"),
        ('{"ts": [1], "boxes": []}', "'ts' must be a number, got [1]"),
        ('{"ts": "soon", "boxes": []}', "'ts' must be a number, got 'soon'"),
        ('{"ts": "0", "boxes": []}', "'ts' must be a number, got '0'"),
        ('{"ts": true, "boxes": []}', "'ts' must be a number, got True"),
        pytest.param('{"ts": 1' + "0" * 400 + ', "boxes": []}', "int too large to convert to float",
                     id="ts-past-float-range"),
        ("not json", "Expecting value"),
        ('{"ts": 1.0, "boxes": [}', "Expecting value"),
    ])
    def test_malformed_log_line_exits_2(self, tmp_path, capsys, bad_line, message):
        log_path = tmp_path / "log.jsonl"
        log_path.write_text('{"ts": 0.0, "boxes": []}\n\n' + bad_line + "\n")
        rc = cli(
            "ingest", "--log", log_path, "--out", tmp_path / "o.csv", "--roi", "0,0,1,1",
            "--travel-seconds", 1.0, "--object-class", "person", *TAU,
        )
        assert rc == 2
        assert f"{log_path}: line 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("box", ['"x0": null', '"x0": "1"', '"x0": true'])
    def test_non_numeric_box_names_the_line(self, tmp_path, capsys, box):
        # blank line 2 is skipped, so the bad box is frame 1 on line 3
        log_path = tmp_path / "log.jsonl"
        log_path.write_text(
            '{"ts": 0.0, "boxes": []}\n\n'
            '{"ts": 1.0, "boxes": [{' + box + ', "y0": 0, "x1": 2, "y1": 1, "class": "person"}]}\n'
        )
        rc = cli(
            "ingest", "--log", log_path, "--out", tmp_path / "o.csv", "--roi", "0,0,1,1",
            "--travel-seconds", 1.0, "--object-class", "person", *TAU,
        )
        assert rc == 2
        assert f"{log_path}: line 3: box coordinates must be finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("label, shown", [("null", "None"), ("7", "7"), ('["car"]', "['car']")])
    def test_non_string_class_names_the_line(self, tmp_path, capsys, label, shown):
        # a null class must not be booked under --object-class None
        log_path = tmp_path / "log.jsonl"
        log_path.write_text(
            '{"ts": 0.0, "boxes": []}\n'
            '{"ts": 1.0, "boxes": [{"x0": 0, "y0": 0, "x1": 2, "y1": 1, "class": ' + label + '}]}\n'
        )
        rc = cli(
            "ingest", "--log", log_path, "--out", tmp_path / "o.csv", "--roi", "0,0,1,1",
            "--travel-seconds", 1.0, "--object-class", "None", *TAU,
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{log_path}: line 2: box class must be a string, got {shown}" in err
        assert not (tmp_path / "o.csv").exists()

    def test_unordered_timestamps_name_the_line(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        log_path.write_text('{"ts": 0.0, "boxes": []}\n\n\n{"ts": 0.0, "boxes": []}\n')
        rc = cli(
            "ingest", "--log", log_path, "--out", tmp_path / "o.csv", "--roi", "0,0,1,1",
            "--travel-seconds", 1.0, "--object-class", "person", *TAU,
        )
        assert rc == 2
        assert f"{log_path}: line 4: timestamps must be strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--fps", "0", "--fps must be a positive integer, got 0"),
        ("--fps", "-2", "--fps must be a positive integer, got -2"),
        ("--travel-seconds", "nan", "--travel-seconds must be a positive finite number, got nan"),
        ("--travel-seconds", "inf", "--travel-seconds must be a positive finite number, got inf"),
        ("--travel-seconds", "0", "--travel-seconds must be a positive finite number, got 0.0"),
        ("--roi", "1,2,3", "--roi 1,2,3: region must be"),
        ("--roi", "a,b,c,d", "--roi a,b,c,d: could not convert"),
        ("--roi", "0,0,0,1", "--roi 0,0,0,1: region must have positive"),
    ])
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value, message):
        log_path = tmp_path / "log.jsonl"
        log_path.write_text('{"ts": 0.0, "boxes": []}\n')
        argv = {"--roi": "0,0,1,1", "--travel-seconds": "1.0", "--fps": "1", flag: value}
        out = tmp_path / "o.csv"
        rc = cli("ingest", "--log", log_path, "--out", out, "--object-class", "person",
                 *(a for kv in argv.items() for a in kv), *TAU)
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert not any(f in err for f in ("--fps", "--travel-seconds", "--roi") if f != flag)
        assert not out.exists()

    def test_process_output_pinned(self, tmp_path):
        # gaps between frames, an epoch start, two frames per second and a
        # travel time under a frame: the digests were recorded before the
        # writer and the sampler became template and array code
        rng = np.random.default_rng(2024)
        ts = (1.6e9 + np.cumsum(rng.choice([0.5, 1.0, 1.0, 2.5], size=300))).tolist()
        frames = []
        for k in rng.integers(0, 4, size=len(ts)).tolist():
            x0 = np.round(rng.uniform(0.0, 200.0, k), 1)
            y0 = np.round(rng.uniform(0.0, 200.0, k), 1)
            w = np.round(rng.uniform(5.0, 60.0, k), 1)
            labels = rng.choice(["car", "person"], k).tolist()
            frames.append(tuple(zip(x0.tolist(), y0.tolist(), (x0 + w).tolist(),
                                    (y0 + w).tolist(), labels)))
        log_path = tmp_path / "log.jsonl"
        save_detection_log(DetectionLog(tuple(ts), tuple(frames)), log_path)
        out = tmp_path / "scene.csv"
        src = str(Path(wattcount.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "wattcount.cli", "ingest", "--log", str(log_path),
             "--out", str(out), "--roi", "50,50,150,150", "--travel-seconds", "0.7",
             "--object-class", "car", "--fps", "2", "--tau-seconds", "60"],
            env=env, check=True, capture_output=True, timeout=120,
        )
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (log_path, out, out.with_suffix(".meta.json"))}
        assert digests == PINNED_INGEST

    def test_missing_log_is_usage_error(self, tmp_path):
        rc = cli(
            "ingest", "--log", tmp_path / "none.jsonl", "--out", tmp_path / "o.csv",
            "--roi", "0,0,1,1", "--travel-seconds", 1.0, "--object-class", "person",
        )
        assert rc == 2


class TestProfile:
    def test_profiles_written_per_counter(self, workspace):
        root, scene, counters, profiles = workspace
        for cid in ("cheap", "gold"):
            profile = load_profile(profiles / f"profile_{cid}.json")
            assert profile.counter_id == cid
            assert len(profile.ratio_samples) == 24  # 3 horizons x 8 windows

    def test_missing_trace_exits_2(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        rc = cli(
            "profile", "--trace", tmp_path / "none.csv", "--counters", counters,
            "--out-dir", tmp_path, "--seed", 1, *TAU,
        )
        assert rc == 2

    def test_tau_mismatch_exits_2(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        rc = cli(
            "profile", "--trace", scene, "--counters", counters,
            "--out-dir", tmp_path, "--seed", 1,
            "--tau-seconds", "999", "--horizon-windows", "8",
        )
        assert rc == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [0, -600])
    def test_sidecar_tau_not_positive_exits_2(self, workspace, tmp_path, capsys, tau):
        root, scene, counters, profiles = workspace
        trace = tmp_path / "scene.csv"
        trace.write_bytes(scene.read_bytes())
        sidecar = tmp_path / "scene.meta.json"
        doc = json.loads(scene.with_suffix(".meta.json").read_text())
        sidecar.write_text(json.dumps({**doc, "tau_seconds": tau}))
        rc = cli(
            "profile", "--trace", trace, "--counters", counters, "--out-dir", tmp_path / "pr",
            "--seed", 1, "--tau-seconds", "600", "--horizon-windows", "8",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{sidecar}: tau_seconds: expected a positive integer, got {tau}" in err
        assert "re-synthesize" not in err

    def test_sidecar_fps_not_positive_exits_2_naming_it(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        trace = tmp_path / "scene.csv"
        trace.write_bytes(scene.read_bytes())
        sidecar = tmp_path / "scene.meta.json"
        doc = json.loads(scene.with_suffix(".meta.json").read_text())
        sidecar.write_text(json.dumps({**doc, "fps": 0}))
        rc = cli(
            "profile", "--trace", trace, "--counters", counters, "--out-dir", tmp_path / "pr",
            "--seed", 1, *TAU,
        )
        assert rc == 2
        assert f"{sidecar}: fps must be a positive integer, got 0" in capsys.readouterr().err

    def test_min_pairs_enforced(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        rc = cli(
            "profile", "--trace", scene, "--counters", counters,
            "--out-dir", tmp_path, "--train-horizons", "0", "--seed", 1, *TAU,
        )
        assert rc == 2  # 8 pairs < default minimum of 30
        rc = cli(
            "profile", "--trace", scene, "--counters", counters,
            "--out-dir", tmp_path, "--train-horizons", "0", "--min-pairs", 8,
            "--threshold", "0.25", "--seed", 1, *TAU,
        )
        assert rc == 0


class TestFrontsAndPlan:
    def test_fronts_window_selection(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        rc = cli(
            "fronts", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--horizon", 3, "--windows", "0-1", "--out-dir", tmp_path, "--seed", 5, *TAU,
        )
        assert rc == 0
        assert sorted(p.name for p in tmp_path.glob("front_*.csv")) == [
            "front_h3_w0.csv", "front_h3_w1.csv",
        ]
        header = (tmp_path / "front_h3_w0.csv").read_text().splitlines()[0]
        assert header == "energy_j,ci_width,counter_id,n_frames"

    def test_fronts_window_out_of_range(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        rc = cli(
            "fronts", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--horizon", 3, "--windows", "8", "--out-dir", tmp_path, "--seed", 5, *TAU,
        )
        assert rc == 2

    @pytest.mark.parametrize("windows, message", [
        ("", "--windows: no indices given"),
        ("x", "--windows: bad index 'x': expected N or N-M"),
    ], ids=["empty", "malformed"])
    def test_fronts_bad_window_list_names_the_flag(self, workspace, tmp_path, capsys,
                                                   windows, message):
        root, scene, counters, profiles = workspace
        out = tmp_path / "fronts"
        rc = cli(
            "fronts", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--horizon", 3, "--windows", windows, "--out-dir", out, "--seed", 5, *TAU,
        )
        assert rc == 2
        assert capsys.readouterr().err == f"{message}\n"
        assert not out.exists()

    def test_fronts_check_every_window_before_writing(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        out = tmp_path / "fronts"
        rc = cli(
            "fronts", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--horizon", 3, "--windows", "6-9", "--out-dir", out, "--seed", 5, *TAU,
        )
        assert rc == 2
        assert "window 8 out of range" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_plan_respects_budget(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        rc = cli(
            "plan", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--horizon", 3, "--budget-wh", 0.05, "--out-dir", tmp_path, "--seed", 5, *TAU,
        )
        assert rc == 0
        plan = json.loads((tmp_path / "plan_h3_0.05wh.json").read_text())
        assert plan["budget_j"] == 180.0  # 0.05 Wh at 3600 J/Wh
        assert plan["spent_j"] <= plan["budget_j"]


PINNED_NIGHT_FRONTS_AND_PLANS = {
    "fronts/front_h3_w0.csv": "9ee770dc76689825e6d08e928d1e3b5a4b1fa3a477ccb2164957a8282bfb904d",
    "fronts/front_h3_w1.csv": "c17e883888b92e7e39e7e1d08bb283b2578641eeb4d6ef774b6f39e7c8824997",
    "fronts/front_h3_w2.csv": "3c9ec7a97fbac6b85d0d5e9c76e834ce10473939311c839c509689da41be84e7",
    "fronts/front_h3_w3.csv": "4598308d56c75f83d2b9ec80bd0a0b384b1d5ceb3adac46cbe227ad2d0a1b559",
    "fronts/front_h3_w4.csv": "4bc3c5f8dfd7dc7cf18baaf07694b071bfb00235e1bd8c6d2b33bfc21c9984b8",
    "fronts/front_h3_w5.csv": "b8db777cf0074ca3d0cff036b30f5d122d9c04e93c0720ef8b76f90be93c184a",
    "fronts/front_h3_w6.csv": "28bb3c414ac9a424b8611c9c313259824862394e3a579f2fd7d8f84f3bcd08c1",
    "fronts/front_h3_w7.csv": "8d2f81ef2be097600740a885a3ae42fc08d1a94700b29772c004d021e7b04546",
    "fronts/front_h3_w8.csv": "37958f02062f4d3dedd1db764d089a0f789a6c3f056b61ba35bc0ac46a77a42f",
    "fronts/front_h3_w9.csv": "37958f02062f4d3dedd1db764d089a0f789a6c3f056b61ba35bc0ac46a77a42f",
    "fronts/front_h3_w10.csv": "dee3c822012dfe24f6c8ac4d7a809c2a6420ba728052f6a5fe38a74db312f171",
    "fronts/front_h3_w11.csv": "19b1a9b22d0b1753e636a31d804ea3afcdc470645ac1ee426ba83f435df44e49",
    "plans/plan_h3_0.3wh.json": "78b91efc69ad6564a6c66b454aef46fb31bb91e6fb3fe4b6a78534b5e04c53bb",
    "plans/plan_h3_0.5wh.json": "a549297acdc9359b1129915c9207473ccb0512f8ff861e9c92bfb3c536f19658",
    "plans/plan_h3_1wh.json": "1d4c2df28eb166b5bb658948522d0c40cfadb01bdd54eb3c46c783e32ecdd8ea",
}


NIGHT_TAU = ["--tau-seconds", "600", "--horizon-windows", "12"]


@pytest.fixture(scope="module")
def night_scene(tmp_path_factory):
    """Night-idle scene, counter set and profiles shared by the pinned night tests."""
    root = tmp_path_factory.mktemp("night")
    counters = root / "counters.json"
    counters.write_text(json.dumps([
        {"counter_id": "cheap", "energy_per_frame_j": 0.2, "ratio_mean": 0.85, "ratio_std": 0.1},
        {"counter_id": "golden", "energy_per_frame_j": 2.45},
    ]))
    scene = root / "scene.csv"
    profiles = root / "profiles"
    assert cli("synth", "--out", scene, "--scene-id", "night-idle", "--base-rate", 1,
               "--amplitude", 1.5, "--period-windows", 12, "--n-windows", 48, "--seed", 7,
               *NIGHT_TAU) == 0
    assert cli("profile", "--trace", scene, "--counters", counters, "--out-dir", profiles,
               "--train-horizons", "0-2", "--threshold", 1.0, "--min-pairs", 36, "--seed", 11,
               *NIGHT_TAU) == 0
    for cid in ("cheap", "golden"):
        profile = load_profile(profiles / f"profile_{cid}.json")
        assert profile.ratio_usable and profile.offset_usable
    return scene, counters, profiles


@pytest.mark.parametrize("command, extra", [
    ("fronts", ["--horizon", 3, "--out-dir", "out"]),
    ("plan", ["--horizon", 3, "--budget-wh", 0.5, "--out-dir", "out"]),
    ("train", ["--train-horizons", "0-2", "--budget-wh", 0.5, "--episodes", 2,
               "--out-dir", "out"]),
    ("simulate", ["--planner", "oracle", "--budget-wh", 0.5, "--horizons", 3,
                  "--out", "out/o.csv"]),
])
def test_window_energy_past_the_float_range_exits_2(night_scene, tmp_path, capsys, command,
                                                    extra):
    # 600 frames at 1e306 J each overflow a float; the command must say which
    # counter of which file, before numpy warns about the overflow
    scene, counters, profiles = night_scene
    dear = tmp_path / "dear.json"
    dear.write_text(json.dumps([
        {**c, "energy_per_frame_j": 1e306} if c["counter_id"] == "golden" else c
        for c in json.loads(counters.read_text())
    ]))
    extra = [tmp_path / a if str(a).startswith("out") else a for a in extra]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli(command, "--trace", scene, "--counters", dear, "--profiles-dir", profiles,
                 "--seed", 2, *extra, *NIGHT_TAU)
    assert rc == 2
    assert f"{dear}: counter 'golden': one 600-frame window costs inf J" in (
        capsys.readouterr().err
    )
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "out").exists()


def test_horizon_energy_past_the_float_range_exits_2(workspace, tmp_path):
    # one 120-frame window at 1e306 J a frame costs 1.2e308 J, which is
    # finite, but eight of them are not; the planner's running sums over a
    # horizon would overflow, so the command must refuse the counter first
    root, scene, counters, profiles = workspace
    dear = tmp_path / "dear.json"
    dear.write_text(json.dumps([
        {**c, "energy_per_frame_j": 1e306} if c["counter_id"] == "gold" else c
        for c in json.loads(counters.read_text())
    ]))
    argv = [str(a) for a in (
        "plan", "--trace", scene, "--counters", dear, "--profiles-dir", profiles,
        "--horizon", 3, "--budget-wh", 10, "--out-dir", tmp_path / "plans", "--seed", 2, *TAU,
    )]
    code = f"import sys\nfrom wattcount.cli import main\nsys.exit(main({argv!r}))"
    out = _python("-W", "error::RuntimeWarning", "-c", code)
    assert out.returncode == 2, out.stderr
    assert f"{dear}: counter 'gold': a horizon of 8 120-frame windows costs inf J" in out.stderr
    assert not (tmp_path / "plans").exists()


EXTREME_TAU = ["--tau-seconds", "120"]


@pytest.fixture(scope="module")
def extreme_scene(tmp_path_factory):
    """A 24-window scene with both regimes profiled, for the extreme-input property."""
    root = tmp_path_factory.mktemp("extreme")
    counters = root / "counters.json"
    counters.write_text(json.dumps([
        {"counter_id": "cheap", "energy_per_frame_j": 0.2, "ratio_mean": 0.85, "ratio_std": 0.1},
        {"counter_id": "golden", "energy_per_frame_j": 2.0},
    ]))
    scene, profiles = root / "scene.csv", root / "profiles"
    assert cli("synth", "--out", scene, "--base-rate", 1, "--amplitude", 1.5,
               "--period-windows", 8, "--n-windows", 24, "--seed", 7, *EXTREME_TAU) == 0
    assert cli("profile", "--trace", scene, "--counters", counters, "--out-dir", profiles,
               "--train-horizons", "0-11", "--horizon-windows", 1, "--threshold", 1.0,
               "--min-pairs", 4, "--seed", 11, *EXTREME_TAU) == 0
    return root, scene, profiles


EXTREME_ALPHAS = (1e-300, 0.95, 1 - 2**-52, 1 - 2**-53)  # 1 - 2**-53 is the largest below 1


@settings(max_examples=100, deadline=None)
@given(
    golden_j=st.floats(5e-324, 1e305),
    # the wake is one per-window term; 2e300 stands for two summed 1e300 wakes
    e_flags=st.tuples(st.sampled_from([0.0, 1e300]), st.sampled_from([0.0, 1e300, 2e300])),
    ulps=st.sampled_from([-1, 0, 1, None]),
    horizon_windows=st.sampled_from([1, 4]),
    alpha=st.sampled_from(EXTREME_ALPHAS),
    horizons=st.sampled_from(["4", "4-5", "4,4"]),
)
# an alpha whose quantile is infinite, a subnormal per-frame cost and a
# horizon given twice
@example(golden_j=2.0, e_flags=(0.0, 0.0), ulps=None, horizon_windows=4,
         alpha=1 - 2**-53, horizons="4")
@example(golden_j=5e-324, e_flags=(0.0, 0.0), ulps=None, horizon_windows=4, alpha=0.95,
         horizons="4")
@example(golden_j=2.0, e_flags=(0.0, 0.0), ulps=0, horizon_windows=4, alpha=0.95,
         horizons="4,4")
def test_extreme_inputs_exit_0_or_2(extreme_scene, golden_j, e_flags, ulps, horizon_windows,
                                    alpha, horizons):
    # valid values at the float range's edges: every command exits 0 or 2,
    # no numpy warning is raised, no plan spends past its budget and no run
    # uses more than its budget
    root, scene, profiles = extreme_scene
    work = Path(tempfile.mkdtemp(dir=root))
    counters = work / "counters.json"
    counters.write_text(json.dumps([
        {"counter_id": "cheap", "energy_per_frame_j": 0.2, "ratio_mean": 0.85, "ratio_std": 0.1},
        {"counter_id": "golden", "energy_per_frame_j": golden_j},
    ]))
    e_capture, e_wake = e_flags
    cheapest = min(0.2, golden_j)
    bare_j = sum([30 * (e_capture + cheapest) + e_wake] * horizon_windows)
    # the bare minimum, one ulp either side of it, or a plain 1 Wh (None)
    budget_wh = 1.0 if ulps is None else bare_j / 3600
    if ulps:
        budget_wh = math.nextafter(budget_wh, math.copysign(math.inf, ulps))
    common = [
        "--trace", scene, "--counters", counters, "--profiles-dir", profiles, "--seed", 3,
        "--alpha", repr(alpha), "--horizon-windows", horizon_windows,
        "--e-capture", repr(e_capture), "--e-wake", repr(e_wake), *EXTREME_TAU,
    ]
    runs = work / "runs"
    commands = [
        ["fronts", "--horizon", 4, "--out-dir", work / "fronts"],
        ["plan", "--horizon", 4, f"--budget-wh={budget_wh!r}", "--out-dir", work / "plans"],
    ] + [
        ["simulate", "--planner", planner, f"--budget-wh={budget_wh!r}", "--horizons", horizons,
         "--golden-counter", "golden", "--validation-horizon", 3, "--out", runs / f"{planner}.csv"]
        for planner in ("oracle", "uni", "golden")
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [cli(*argv, *common) for argv in commands]
        if runs.is_dir():
            codes.append(cli("report", "--runs-dir", runs, "--out", work / "report.csv"))
    assert set(codes) <= {0, 2}, codes
    for plan in (work / "plans").glob("*.json"):
        written = json.loads(plan.read_text())
        assert written["spent_j"] <= written["budget_j"]
    if (work / "report.csv").exists():
        rows = (work / "report.csv").read_text().splitlines()
        column = rows[0].split(",").index("energy_utilization")
        assert all(float(row.split(",")[column]) <= 1.0 for row in rows[1:]), rows


def _digests(root, *dirs):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for d in dirs for p in (root / d).iterdir()
    }


def test_night_scene_fronts_and_plans_pinned(night_scene, tmp_path):
    # idle nights and busy days put windows on both CI branches, and 300
    # cheap frames cost exactly what 30 golden ones do (75.0 J), so ties in
    # energy break by width both ways; the digests were recorded before
    # fronts and the allocator's step table were built a horizon at a time
    scene, counters, profiles = night_scene
    pipe = ["--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--horizon", 3, "--seed", 5, *NIGHT_TAU]
    assert cli("fronts", *pipe, "--windows", "all", "--out-dir", tmp_path / "fronts") == 0
    assert cli("plan", *pipe, "--budget-wh", 0.3, 0.5, 1.0, "--out-dir", tmp_path / "plans") == 0
    assert _digests(tmp_path, "fronts", "plans") == PINNED_NIGHT_FRONTS_AND_PLANS
    rows = {line for p in (tmp_path / "fronts").iterdir() for line in p.read_text().splitlines()}
    assert any(r.startswith("75.0,") and r.endswith(",cheap,300") for r in rows)
    assert any(r.startswith("75.0,") and r.endswith(",golden,30") for r in rows)


PINNED_NIGHT_SIMULATIONS = {
    "runs/golden.csv": "7e1314e56ee88db2166d2e44bb6fb0258d138f5bf5a512a875e0f0b0f61da0c0",
    "runs/oracle.csv": "25c16806b433f5cead085f8cb154c51dfa1eaad6a3e6c2b7fab438386122db56",
    "runs/uni.csv": "33784bf90628b6ebf014a2e92058ec405f271e2de20f974c0fab51e815bd70d0",
}


def test_night_scene_simulations_pinned(night_scene, tmp_path):
    # the oracle's runs put lone windows and pairs on one (counter, frame
    # count) and one counter on many frame counts in a horizon, the
    # fixed-counter runs twelve windows on one, and the windows fall on both
    # CI branches; the digests were recorded while runs of ten or more
    # windows on one (counter, frame count) were scored in one array pass
    # and the rest one window at a time
    scene, counters, profiles = night_scene
    pipe = ["--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--horizons", "2-3", "--budget-wh", 0.4, "--seed", 41, *NIGHT_TAU]
    for planner, extra in (("oracle", []), ("uni", ["--validation-horizon", 1]),
                           ("golden", ["--golden-counter", "golden"])):
        out = tmp_path / "runs" / f"{planner}.csv"
        assert cli("simulate", *pipe, "--planner", planner, "--out", out, *extra) == 0
        out.with_suffix(".manifest.json").unlink()  # names the scene's temporary path
    assert _digests(tmp_path, "runs") == PINNED_NIGHT_SIMULATIONS
    rows = [r.split(",") for r in (tmp_path / "runs" / "oracle.csv").read_text().splitlines()[1:]]
    groups = Counter((h, cid, n) for h, _, cid, n, *_ in rows)
    assert {1, 2} <= set(groups.values())
    assert len({(h, cid) for h, cid, _ in groups}) < len(groups)  # a counter on two n


@pytest.fixture(scope="module")
def agents_dir(workspace, tmp_path_factory):
    root, scene, counters, profiles = workspace
    out = tmp_path_factory.mktemp("agents")
    rc = cli(
        "train", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
        "--train-horizons", "0-2", "--budget-wh", 0.05, "--episodes", 5,
        "--out-dir", out, "--seed", 13, *TAU,
    )
    assert rc == 0
    return out


class TestTrainAndSimulate:
    def test_train_outputs(self, agents_dir):
        assert (agents_dir / "agents_0.05wh.json").exists()
        log = (agents_dir / "training_log_0.05wh.csv").read_text().splitlines()
        assert log[0] == "episode,mean_reward_reg,mean_reward_cls,entropy"
        assert len(log) == 6

    def test_simulate_oracle_writes_run_artifacts(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        out = tmp_path / "run.csv"
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "oracle", "--budget-wh", 0.05, "--horizons", "3-4",
            "--out", out, "--seed", 21, *TAU,
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["planner"] == "oracle"
        assert manifest["results"] == "run.csv"
        assert "sigma_mode" not in manifest
        assert len(manifest["unused_j"]) == 2
        assert all(u >= 0 for u in manifest["unused_j"])
        assert out.read_text().splitlines()[0].startswith("horizon,window,")

    @pytest.mark.parametrize("short_j", [1e-12, 6e-9, 1e-6, None])
    def test_golden_budget_near_the_bare_minimum(self, workspace, tmp_path, capsys, short_j):
        # 30 gold frames in each of 4 windows cost 4 * 30 * (2.0 + 0.05) = 246 J: a budget
        # short of that by any amount is refused by name, never overdrawn, and the least
        # budget that covers it (None) spends it without going past the budget
        root, scene, counters, profiles = workspace
        budget_wh = math.nextafter(246 / 3600, 1) if short_j is None else (246 - short_j) / 3600
        out = tmp_path / "golden.csv"
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "golden", "--golden-counter", "gold", f"--budget-wh={budget_wh!r}",
            "--horizons", "8-9", "--out", out, "--seed", 3, *TAU, "--horizon-windows", 4,
        )
        if short_j is None:
            assert rc == 0
            unused = json.loads((tmp_path / "golden.manifest.json").read_text())["unused_j"]
            assert len(unused) == 2 and all(0 <= u < 1e-9 for u in unused)
        else:
            assert rc == 2
            err = capsys.readouterr().err
            assert "budget below bare minimum: counter 'gold' cannot afford 30 frames" in err
            assert not out.exists()

    def test_manifest_names_the_version_and_the_wake(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        out = tmp_path / "run.csv"
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "oracle", "--budget-wh", 0.05, "--horizons", "3", "--e-wake", 0.25,
            "--out", out, "--seed", 21, *TAU,
        )
        assert rc == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["version"] == wattcount.__version__
        assert [k for k in manifest if "wake" in k] == ["e_wake"] and manifest["e_wake"] == 0.25

    @pytest.mark.parametrize("planner, args", [
        ("golden", ["--golden-counter", "gold", "--horizons", "0-1"]),
        ("uni", ["--validation-horizon", 0, "--horizons", 1]),
    ], ids=["golden", "uni"])
    def test_golden_short_window_exits_2_naming_it(self, workspace, tmp_path, capsys, planner,
                                                   args):
        # a 20-frame window is refused as too short, not as too poor, at any budget
        root, scene, counters, profiles = workspace
        short = ["--tau-seconds", "20", "--horizon-windows", "8"]
        trace = tmp_path / "short.csv"
        assert cli("synth", "--out", trace, "--n-windows", 16, "--seed", 7, *short) == 0
        out = tmp_path / f"{planner}.csv"
        rc = cli(
            "simulate", "--trace", trace, "--counters", counters, "--profiles-dir", profiles,
            "--planner", planner, "--budget-wh", 100.0, *args, "--out", out, "--seed", 3,
            *short,
        )
        assert rc == 2
        assert "window has 20 frames, need >= 30" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_rerun_byte_identical(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        texts = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            rc = cli(
                "simulate", "--trace", scene, "--counters", counters,
                "--profiles-dir", profiles, "--planner", "oracle",
                "--budget-wh", 0.05, "--horizons", "3", "--out", out, "--seed", 21, *TAU,
            )
            assert rc == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_simulate_rl_guards(self, workspace, agents_dir, tmp_path):
        root, scene, counters, profiles = workspace
        base = [
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "rl", "--horizons", "3", "--out", tmp_path / "rl.csv",
            "--seed", 2, *TAU,
        ]
        assert cli(*base, "--budget-wh", 0.05) == 2  # no --agents
        rc = cli(*base, "--budget-wh", 0.06, "--agents", agents_dir / "agents_0.05wh.json")
        assert rc == 2  # budget does not match the trained level
        rc = cli(*base, "--budget-wh", 0.05, "--agents", agents_dir / "agents_0.05wh.json")
        assert rc == 0

    def test_simulate_golden_needs_counter(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "golden", "--budget-wh", 0.05, "--horizons", "3",
            "--out", tmp_path / "g.csv", "--seed", 2, *TAU,
        )
        assert rc == 2

    def test_simulate_golden_unknown_counter_exits_2(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        out = tmp_path / "g.csv"
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "golden", "--golden-counter", "nope", "--budget-wh", 0.05,
            "--horizons", "3", "--out", out, "--seed", 2, *TAU,
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--golden-counter" in err and "'nope'" in err
        assert "cheap" in err and "gold" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("plan", ["--horizon", 3, "--out-dir", "out"]),
        ("train", ["--train-horizons", "0-2", "--episodes", 2, "--out-dir", "out"]),
        ("simulate", ["--planner", "oracle", "--horizons", 3, "--out", "out/o.csv"]),
        ("simulate", ["--planner", "golden", "--golden-counter", "gold", "--horizons", 3,
                      "--out", "out/g.csv"]),
    ])
    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_exits_2(self, workspace, tmp_path, capsys, command, extra,
                                       budget):
        root, scene, counters, profiles = workspace
        extra = [tmp_path / a if str(a).startswith("out") else a for a in extra]
        rc = cli(
            command, "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--budget-wh", budget, "--seed", 2, *extra, *TAU,
        )
        assert rc == 2
        assert f"--budget-wh must be finite, got {budget}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, levels, extra", [
        ("plan", [1.03, 1.0300001], ["--horizon", 3]),
        ("train", [1, 1], ["--train-horizons", "0-2", "--episodes", 2]),
    ])
    def test_budget_levels_of_one_file_name_exit_2(self, workspace, tmp_path, capsys, command,
                                                  levels, extra):
        # outputs are named by the level's %g form, so these levels would
        # write one file twice
        root, scene, counters, profiles = workspace
        rc = cli(
            command, "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--budget-wh", *levels, "--seed", 2, "--out-dir", tmp_path / "out", *extra, *TAU,
        )
        assert rc == 2
        a, b = map(float, levels)
        assert f"--budget-wh {a!r} and {b!r} would write the same {b:g}wh files" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, bad, extra", [
        ("fronts", "--horizon", 99, ["--horizon", 99, "--out-dir", "out"]),
        ("plan", "--horizon", 99, ["--horizon", 99, "--budget-wh", 0.05, "--out-dir", "out"]),
        ("simulate", "--horizons", 6, ["--planner", "oracle", "--budget-wh", 0.05,
                                       "--horizons", "5-6", "--out", "out/o.csv"]),
        ("simulate", "--validation-horizon", 99, [
            "--planner", "uni", "--validation-horizon", 99, "--budget-wh", 0.05,
            "--horizons", 3, "--out", "out/u.csv",
        ]),
        ("train", "--train-horizons", 99, ["--train-horizons", "0-1,99", "--budget-wh", 0.05,
                                           "--episodes", 2, "--out-dir", "out"]),
        ("profile", "--train-horizons", 6, ["--train-horizons", "0-99", "--out-dir", "out"]),
    ])
    def test_horizon_past_the_trace_exits_2_naming_the_flag(self, workspace, tmp_path, capsys,
                                                            command, flag, bad, extra):
        # the workspace scene holds 48 windows, six whole 8-window horizons
        root, scene, counters, profiles = workspace
        extra = [tmp_path / a if str(a).startswith("out") else a for a in extra]
        if command != "profile":
            extra += ["--profiles-dir", profiles]
        rc = cli(command, "--trace", scene, "--counters", counters, "--seed", 2, *extra, *TAU)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{flag} {bad} out of range: the trace holds 6 whole horizons" in err
        assert not (tmp_path / "out").exists()

    def test_repeated_horizon_exits_2(self, workspace, tmp_path, capsys):
        # report would merge the two runs of horizon 3 into one block
        root, scene, counters, profiles = workspace
        runs = tmp_path / "runs"
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "oracle", "--budget-wh", 0.05, "--horizons", "3,3",
            "--out", runs / "o.csv", "--seed", 2, *TAU,
        )
        assert rc == 2
        assert "--horizons: index 3 repeated in '3,3'" in capsys.readouterr().err
        assert not runs.exists()

    def test_simulate_uni_needs_validation_horizon(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "uni", "--budget-wh", 0.05, "--horizons", "3",
            "--out", tmp_path / "u.csv", "--seed", 2, *TAU,
        )
        assert rc == 2

    @pytest.mark.parametrize("command, horizon, extra", [
        ("simulate", 2, ["--planner", "oracle", "--budget-wh", 0.05, "--horizons", "2-5",
                         "--out", "runs/o.csv"]),
        ("simulate", 2, ["--planner", "golden", "--golden-counter", "gold", "--budget-wh", 1.0,
                         "--horizons", "2-5", "--out", "runs/g.csv"]),
        ("simulate", 1, ["--planner", "uni", "--validation-horizon", 1, "--budget-wh", 0.05,
                         "--horizons", "2-5", "--out", "runs/u.csv"]),
        ("simulate", 2, ["--planner", "rl", "--agents", "agents", "--budget-wh", 0.05,
                         "--horizons", "2-5", "--out", "runs/r.csv"]),
        ("plan", 3, ["--horizon", 3, "--budget-wh", 0.05, "--out-dir", "runs"]),
        ("fronts", 3, ["--horizon", 3, "--out-dir", "runs"]),
        ("train", 1, ["--train-horizons", "1-2", "--budget-wh", 0.05, "--episodes", 2,
                      "--out-dir", "runs"]),
    ])
    def test_unprofiled_regime_names_horizon_and_window(self, workspace, agents_dir, tmp_path,
                                                        capsys, command, horizon, extra):
        # the workspace profiles have no offset samples, and a quiet scene
        # has windows whose sample mean is at or below their 0.25 threshold
        root, scene, counters, profiles = workspace
        quiet = tmp_path / "quiet.csv"
        assert cli("synth", "--out", quiet, "--n-windows", 48, "--seed", 7, "--base-rate", 1.0,
                   "--amplitude", 1.5, "--period-windows", 8, *TAU) == 0
        capsys.readouterr()
        extra = [agents_dir / "agents_0.05wh.json" if a == "agents"
                 else tmp_path / a if str(a).startswith("runs") else a for a in extra]
        rc = cli(command, "--trace", quiet, "--counters", counters, "--profiles-dir", profiles,
                 "--seed", 2, *extra, *TAU)
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"validation error: horizon {horizon}, window [0-7]: unprofiled regime: "
            r"counter '(cheap|gold)' has no offset samples\n", err
        ), err
        assert not [p for p in (tmp_path / "runs").rglob("*") if p.is_file()]  # nothing written


class TestReport:
    def test_aggregates_runs(self, workspace, tmp_path):
        root, scene, counters, profiles = workspace
        runs = tmp_path / "runs"
        runs.mkdir()
        for planner, extra in (
            ("oracle", []),
            ("golden", ["--golden-counter", "cheap"]),
        ):
            rc = cli(
                "simulate", "--trace", scene, "--counters", counters,
                "--profiles-dir", profiles, "--planner", planner,
                "--budget-wh", 0.05, "--horizons", "3", "--out", runs / f"{planner}.csv",
                "--seed", 2, *TAU, *extra,
            )
            assert rc == 0
        out = tmp_path / "comparison.csv"
        assert cli("report", "--runs-dir", runs, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("budget_j,planner,")
        planners = [line.split(",")[1] for line in lines[1:]]
        assert planners == ["golden", "oracle"]  # sorted by budget then name

    def test_empty_runs_dir_exits_2(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        assert cli("report", "--runs-dir", runs, "--out", tmp_path / "c.csv") == 2

    HEADER = "horizon,window,counter_id,n_frames,energy_j,center,half_width,true_sum"
    GOOD_ROW = "3,0,cheap,30,7.5,120.5,10.25,118"

    def _report(self, tmp_path, manifest=None, rows=(GOOD_ROW,)):
        runs = tmp_path / "runs"
        runs.mkdir()
        manifest = {"results": "run.csv", "alpha": 0.95, "budget_j": 180.0,
                    "planner": "oracle", **(manifest or {})}
        (runs / "run.manifest.json").write_text(json.dumps(manifest))
        (runs / "run.csv").write_text("\n".join([self.HEADER, *rows]) + "\n")
        return cli("report", "--runs-dir", runs, "--out", tmp_path / "c.csv"), runs

    def test_hand_written_run_reports(self, tmp_path):
        rc, _ = self._report(tmp_path)
        assert rc == 0

    @pytest.mark.parametrize("key, value", [
        ("alpha", "0.95"), ("alpha", 1.5), ("alpha", 0), ("alpha", True),
        ("budget_j", "180"), ("budget_j", 0), ("budget_j", -5.0), ("budget_j", None),
        ("results", 5), ("results", ""), ("results", None),
        ("planner", "a,b"), ("planner", "a\nb"), ("planner", ""), ("planner", 7),
    ])
    def test_bad_manifest_value_exits_2_naming_file_and_key(self, tmp_path, capsys, key,
                                                            value):
        rc, runs = self._report(tmp_path, {key: value})
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{runs / 'run.manifest.json'}: {key}: expected " in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("row, message", [
        ("3,1,cheap,30,7.5,120.5,10.25", "expected 8 fields, got 7"),
        ("3,1,cheap,30,7.5,120.5,10.25,118,9", "expected 8 fields, got 9"),
        ("3,1,cheap,30,7.5,abc,10.25,118", "could not convert string to float: 'abc'"),
        ("3,x,cheap,30,7.5,120.5,10.25,118", "invalid literal for int()"),
        ("3,1,cheap,30,7.5,nan,10.25,118", "must be finite"),
        ("3,1,cheap,30,inf,120.5,10.25,118", "must be finite"),
        ("3,1,cheap,30,7.5,120.5,-inf,118", "must be finite"),
        ("3,1,cheap,30,7.5,120.5,-1.0,118", "half_width must be non-negative"),
    ])
    def test_bad_results_row_exits_2_naming_file_and_line(self, tmp_path, capsys, row,
                                                          message):
        rc, runs = self._report(tmp_path, rows=(self.GOOD_ROW, row))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{runs / 'run.csv'}: line 3: " in err and message in err


def _drop_key(src, dst, *keys):
    """Copy a JSON object file to dst with keys (a path into nested objects) removed."""
    d = json.loads(Path(src).read_text())
    inner = d
    for k in keys[:-1]:
        inner = inner[k]
    del inner[keys[-1]]
    Path(dst).write_text(json.dumps(d))


def _plan(workspace, tmp_path, profiles_dir):
    root, scene, counters, profiles = workspace
    return cli(
        "plan", "--trace", scene, "--counters", counters, "--profiles-dir", profiles_dir,
        "--horizon", 3, "--budget-wh", 0.05, "--out-dir", tmp_path / "plans", "--seed", 2,
        *TAU,
    )


def _profiles_copy(workspace, tmp_path):
    profiles = workspace[3]
    copy = tmp_path / "profiles"
    copy.mkdir()
    for cid in ("cheap", "gold"):
        name = f"profile_{cid}.json"
        (copy / name).write_bytes((profiles / name).read_bytes())
    return copy


class TestMalformedInputs:
    """A JSON input missing a key exits 2 naming the file and the key."""

    def test_profile_missing_key(self, workspace, tmp_path, capsys):
        copy = _profiles_copy(workspace, tmp_path)
        bad = copy / "profile_cheap.json"
        _drop_key(bad, bad, "offset_samples")
        assert _plan(workspace, tmp_path, copy) == 2
        err = capsys.readouterr().err
        assert f"{bad}: missing key 'offset_samples'" in err

    def test_profile_of_another_counter(self, workspace, tmp_path, capsys):
        copy = _profiles_copy(workspace, tmp_path)
        gold = copy / "profile_gold.json"
        gold.write_bytes((copy / "profile_cheap.json").read_bytes())
        assert _plan(workspace, tmp_path, copy) == 2
        err = capsys.readouterr().err
        assert f"{gold}: profile is for counter 'cheap', not 'gold'" in err
        assert not (tmp_path / "plans").exists()

    def test_trace_sidecar_missing_key(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        trace = tmp_path / "scene.csv"
        trace.write_bytes(scene.read_bytes())
        sidecar = tmp_path / "scene.meta.json"
        _drop_key(scene.with_suffix(".meta.json"), sidecar, "fps")
        rc = cli(
            "fronts", "--trace", trace, "--counters", counters, "--profiles-dir", profiles,
            "--horizon", 3, "--out-dir", tmp_path / "fronts", "--seed", 2, *TAU,
        )
        assert rc == 2
        assert f"{sidecar}: missing key 'fps'" in capsys.readouterr().err

    def test_checkpoint_missing_key(self, workspace, agents_dir, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        bad = tmp_path / "agents.json"
        _drop_key(agents_dir / "agents_0.05wh.json", bad, "networks", "cls_critic")
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "rl", "--agents", bad, "--budget-wh", 0.05, "--horizons", 3,
            "--out", tmp_path / "rl.csv", "--seed", 2, *TAU,
        )
        assert rc == 2
        assert f"{bad}: missing key 'networks.cls_critic'" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, value, message", [
        (("networks",), [1, 2], "networks: expected a JSON object, got [1, 2]"),
        (("networks", "reg_actor"), [1, 2],
         "networks.reg_actor: expected a JSON object, got [1, 2]"),
        (("networks", "cls_actor", "params"), [1.0, 2.0],
         "networks.cls_actor.params: expected 4994 numbers, got 2"),
        (("networks", "cls_actor", "params"), {"w": 1.0},
         "networks.cls_actor.params: expected a list of numbers, got {'w': 1.0}"),
        (("networks", "reg_critic", "params"), [[1.0], [2.0, 3.0]],
         "networks.reg_critic.params[0]: expected a finite number, got [1.0]"),
        (("networks", "cls_critic", "sizes"), 5,
         "networks.cls_critic.sizes: expected a list of numbers, got 5"),
        (("counter_ids",), 5, "counter_ids: expected a list of strings, got 5"),
        (("reg_log_std",), "wide", "reg_log_std: expected a finite number, got 'wide'"),
    ], ids=[  # the names the cases have always been collected under
        "keys0-value0-'networks' must be a JSON object",
        "keys1-value1-'networks.reg_actor' must be a JSON object",
        "keys2-value2-'networks.cls_actor.params' must be a list of",
        "keys3-value3-'networks.cls_actor.params' must be a list of",
        "keys4-value4-'networks.reg_critic.params' must be a list of",
        "keys5-5-layer sizes for cls_critic do not match",
        "keys6-5-not iterable",
        "keys7-wide-could not convert string to float",
    ])
    def test_checkpoint_wrong_shape(self, workspace, agents_dir, tmp_path, capsys, keys, value,
                                    message):
        root, scene, counters, profiles = workspace
        d = json.loads((agents_dir / "agents_0.05wh.json").read_text())
        inner = d
        for k in keys[:-1]:
            inner = inner[k]
        inner[keys[-1]] = value
        bad = tmp_path / "agents.json"
        bad.write_text(json.dumps(d))
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "rl", "--agents", bad, "--budget-wh", 0.05, "--horizons", 3,
            "--out", tmp_path / "rl.csv", "--seed", 2, *TAU,
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"validation error: {bad}: {message}" in err

    def test_checkpoint_null_param(self, agents_dir, tmp_path):
        d = json.loads((agents_dir / "agents_0.05wh.json").read_text())
        d["networks"]["reg_actor"]["params"][5] = None
        bad = tmp_path / "agents.json"
        bad.write_text(json.dumps(d))
        message = r"networks\.reg_actor\.params\[5\]: expected a finite number, got None$"
        with pytest.raises(ValueError, match=message):
            load_agent_pair(bad)

    def test_manifest_missing_key(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        runs = tmp_path / "runs"
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "golden", "--golden-counter", "cheap", "--budget-wh", 0.05,
            "--horizons", 3, "--out", runs / "golden.csv", "--seed", 2, *TAU,
        )
        assert rc == 0
        manifest = runs / "golden.manifest.json"
        _drop_key(manifest, manifest, "results")
        assert cli("report", "--runs-dir", runs, "--out", tmp_path / "c.csv") == 2
        assert f"{manifest}: missing key 'results'" in capsys.readouterr().err


class TestNonObjectJson:
    """A JSON input holding anything but an object exits 2 naming the file."""

    def _expect(self, capsys, rc, path):
        assert rc == 2
        assert f"{path}: expected a JSON object" in capsys.readouterr().err

    def test_profile(self, workspace, tmp_path, capsys):
        copy = _profiles_copy(workspace, tmp_path)
        bad = copy / "profile_cheap.json"
        bad.write_text("[1, 2]")
        rc = _plan(workspace, tmp_path, copy)
        self._expect(capsys, rc, bad)

    def test_trace_sidecar(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        trace = tmp_path / "scene.csv"
        trace.write_bytes(scene.read_bytes())
        sidecar = tmp_path / "scene.meta.json"
        sidecar.write_text("[1, 2]")
        rc = cli("profile", "--trace", trace, "--counters", counters,
                 "--out-dir", tmp_path / "pr", "--seed", 1, *TAU)
        self._expect(capsys, rc, sidecar)

    def test_checkpoint(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        bad = tmp_path / "agents.json"
        bad.write_text('"agents"')
        rc = cli(
            "simulate", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
            "--planner", "rl", "--agents", bad, "--budget-wh", 0.05, "--horizons", 3,
            "--out", tmp_path / "rl.csv", "--seed", 2, *TAU,
        )
        self._expect(capsys, rc, bad)

    def test_manifest(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        manifest = runs / "golden.manifest.json"
        manifest.write_text("[1, 2]")
        rc = cli("report", "--runs-dir", runs, "--out", tmp_path / "c.csv")
        self._expect(capsys, rc, manifest)


_DELETE = object()
_SWAPS = {"a string": "0.25", "true": True, "null": None, "NaN": math.nan,
          "Infinity": math.inf, "0": 0, "-1": -1, "1.5": 1.5}
_TYPE_BREAKERS = ("a string", "true", "null", "NaN", "Infinity")


def _bad_values(doc, optional, path=()):
    """(key path, label, value, must_fail) for every key of doc and the head of every list.

    must_fail marks a value that breaks the field's type, or the deletion of a
    required key: the command must exit 2 naming the file. The rest (0 and -1
    where a number belongs, 1.5 where a float does, a deleted optional key)
    may exit 0 or 2.
    """
    items = doc.items() if isinstance(doc, dict) else [(0, doc[0])] if doc else []
    for key, value in items:
        at = (*path, key)
        if isinstance(doc, dict):
            yield at, "deleted", _DELETE, key not in optional
        for label, new in _SWAPS.items():
            if isinstance(value, str):
                must_fail = label != "a string"
            elif type(value) in (int, float):
                must_fail = label in _TYPE_BREAKERS or (label == "1.5" and type(value) is int)
            else:
                must_fail = True
            yield at, label, new, must_fail
        if isinstance(value, (dict, list)):
            yield from _bad_values(value, optional, at)


def _sweep(target, doc, run, optional=()):
    """Write each bad variant of doc to target and run; the cases that broke the rule.

    run() -> (exit code, stderr). Besides the key swaps, the file is also
    truncated and replaced by a directory, which must exit 2 naming it.
    """
    def check(what, must_fail):
        rc, err = run()
        if (rc != 2 or str(target) not in err) if must_fail else rc not in (0, 2):
            broken.append(f"{what}: exit {rc}: {err.strip()[-200:]}")

    broken = []
    for at, label, value, must_fail in list(_bad_values(doc, optional)):
        *head, last = at
        inner = functools.reduce(operator.getitem, head, doc)
        kept = inner[last]
        if value is _DELETE:
            del inner[last]
        else:
            inner[last] = value
        target.write_text(json.dumps(doc))
        inner[last] = kept  # doc is edited in place: a deep copy per case costs seconds
        check(f"{'.'.join(map(str, at))} {label}", must_fail)
    text = json.dumps(doc)
    target.write_text(text[: len(text) // 2])
    check("truncated", True)
    target.unlink()
    target.mkdir()
    check("a directory", True)
    target.rmdir()
    target.write_text(text)
    return broken


class TestMalformedInputSweep:
    """Each artefact a command reads, with every key set to each kind of bad value."""

    def test_counters(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        target = tmp_path / "counters.json"
        doc = json.loads(counters.read_text())

        def run():
            rc = cli("profile", "--trace", scene, "--counters", target, "--out-dir",
                     tmp_path / "pr", "--threshold", 0.25, "--min-pairs", 24, "--seed", 1, *TAU)
            return rc, capsys.readouterr().err

        target.write_text(json.dumps(doc))
        assert run()[0] == 0
        optional = {"ratio_mean", "ratio_std", "offset_std", "miss_floor"}
        assert _sweep(target, doc, run, optional) == []

    def test_profile(self, workspace, tmp_path, capsys):
        copy_dir = _profiles_copy(workspace, tmp_path)
        target = copy_dir / "profile_cheap.json"
        doc = json.loads(target.read_text())

        def run():
            return _plan(workspace, tmp_path, copy_dir), capsys.readouterr().err

        assert run()[0] == 0
        assert _sweep(target, doc, run, {"dropped_pairs"}) == []

    def test_trace_sidecar(self, workspace, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        trace = tmp_path / "scene.csv"
        trace.write_bytes(scene.read_bytes())
        target = tmp_path / "scene.meta.json"
        doc = json.loads(scene.with_suffix(".meta.json").read_text())

        def run():
            rc = cli("profile", "--trace", trace, "--counters", counters, "--out-dir",
                     tmp_path / "pr", "--threshold", 0.25, "--min-pairs", 24, "--seed", 1, *TAU)
            return rc, capsys.readouterr().err

        target.write_text(json.dumps(doc))
        assert run()[0] == 0
        assert _sweep(target, doc, run) == []

    def test_checkpoint(self, workspace, agents_dir, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        target = tmp_path / "agents.json"
        doc = json.loads((agents_dir / "agents_0.05wh.json").read_text())
        for net in doc["networks"].values():  # short numbers keep ~250 rewrites cheap
            net["params"] = [round(x, 2) for x in net["params"]]

        def run():
            rc = cli("simulate", "--trace", scene, "--counters", counters, "--profiles-dir",
                     profiles, "--planner", "rl", "--agents", target, "--budget-wh", 0.05,
                     "--horizons", 3, "--out", tmp_path / "rl.csv", "--seed", 2, *TAU)
            return rc, capsys.readouterr().err

        target.write_text(json.dumps(doc))
        assert run()[0] == 0
        assert _sweep(target, doc, run) == []

    def test_manifest(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run.csv").write_text(f"{TestReport.HEADER}\n{TestReport.GOOD_ROW}\n")
        target = runs / "run.manifest.json"
        doc = {"results": "run.csv", "alpha": 0.95, "budget_j": 180.0, "planner": "oracle"}

        def run():
            rc = cli("report", "--runs-dir", runs, "--out", tmp_path / "c.csv")
            return rc, capsys.readouterr().err

        target.write_text(json.dumps(doc))
        assert run()[0] == 0
        assert _sweep(target, doc, run) == []


class TestMalformedInputProbes:
    """Inputs that once ran on or failed without naming their file or flag."""

    @pytest.mark.parametrize("key, value, message", [
        ("window_frames", 121, "trained on 121-frame windows, the trace has 120-frame windows"),
        ("counter_ids", ["cheap", "other"],
         "trained on a different counter set: ['cheap', 'other'], not ['cheap', 'gold']"),
        ("norm_mean_scale", 0, "norm_mean_scale must be positive and finite, got 0.0"),
        ("norm_std_scale", -1e-3, "norm_std_scale must be positive and finite, got -0.001"),
    ])
    def test_checkpoint_out_of_range(self, workspace, agents_dir, tmp_path, capsys, key, value,
                                     message):
        root, scene, counters, profiles = workspace
        d = json.loads((agents_dir / "agents_0.05wh.json").read_text())
        d[key] = value
        bad = tmp_path / "agents.json"
        bad.write_text(json.dumps(d))
        out = tmp_path / "rl.csv"
        rc = cli("simulate", "--trace", scene, "--counters", counters, "--profiles-dir",
                 profiles, "--planner", "rl", "--agents", bad, "--budget-wh", 0.05,
                 "--horizons", 3, "--out", out, "--seed", 2, *TAU)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.removeprefix("validation error: ").startswith(f"{bad}: ") and message in err
        assert not out.exists()

    def test_directory_in_place_of_a_file(self, workspace, agents_dir, tmp_path, capsys):
        root, scene, counters, profiles = workspace
        rc = cli("profile", "--trace", tmp_path, "--counters", counters, "--out-dir",
                 tmp_path / "pr", "--seed", 1, *TAU)
        assert rc == 2
        assert f"{tmp_path}: not a regular file" in capsys.readouterr().err
        rc = cli("simulate", "--trace", scene, "--counters", counters, "--profiles-dir",
                 profiles, "--planner", "rl", "--agents", agents_dir, "--budget-wh", 0.05,
                 "--horizons", 3, "--out", tmp_path / "rl.csv", "--seed", 2, *TAU)
        assert rc == 2
        assert f"{agents_dir}: not a regular file" in capsys.readouterr().err
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run.manifest.json").write_text(json.dumps(
            {"results": ".", "alpha": 0.95, "budget_j": 180.0, "planner": "oracle"}))
        assert cli("report", "--runs-dir", runs, "--out", tmp_path / "c.csv") == 2
        assert f"{runs}: not a regular file" in capsys.readouterr().err

    def test_config_directory(self, tmp_path, capsys):
        rc = cli("--config", tmp_path, "synth", "--out", tmp_path / "o.csv", "--n-windows", 8,
                 "--seed", 1, *TAU)
        assert rc == 2
        assert f"{tmp_path}: not a regular file" in capsys.readouterr().err

    @pytest.mark.parametrize("episodes", [0, -3])
    def test_train_episodes(self, workspace, tmp_path, capsys, episodes):
        root, scene, counters, profiles = workspace
        out = tmp_path / "agents"
        rc = cli("train", "--trace", scene, "--counters", counters, "--profiles-dir", profiles,
                 "--budget-wh", 0.05, "--episodes", episodes, "--out-dir", out, "--seed", 1,
                 *TAU)
        assert rc == 2
        assert f"--episodes must be a positive integer, got {episodes}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--base-rate", "nan", "base_rate"), ("--base-rate", "inf", "base_rate"),
        ("--amplitude", "nan", "diurnal_amplitude"),
    ])
    def test_synth_non_finite_rate(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "o.csv"
        rc = cli("synth", "--out", out, "--n-windows", 8, "--seed", 1, flag, value, *TAU)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{flag} {value}" in err
        assert f"{field} must be non-negative and finite, got {value}" in err
        assert not out.exists()


def test_no_subcommand_offers_sigma_mode():
    parser = build_parser()
    for sub in parser._subparsers._group_actions[0].choices.values():
        assert "--sigma-mode" not in sub.format_help()


def test_readme_flags_are_options():
    # pip's --no-build-isolation is the one flag the README names that is not wattcount's
    parser = build_parser()
    parsers = [parser, *parser._subparsers._group_actions[0].choices.values()]
    options = {o for p in parsers for a in p._actions for o in a.option_strings}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert "--e-wake" in named
    assert named - options == set()


@pytest.mark.parametrize("flag", ["--e-wake-capture", "--e-wake-process"])
def test_old_wake_settings_exit_2(tmp_path, capsys, flag):
    # the per-window wake is the one flag --e-wake; the two it replaced are
    # unknown, as flags and as config keys (their dest names)
    argv = ["profile", "--trace", tmp_path / "s.csv", "--counters", tmp_path / "c.json",
            "--out-dir", tmp_path / "p", "--seed", 1]
    with pytest.raises(SystemExit) as exc:
        cli(*argv, flag, 1.0)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1.0}))
    assert cli("--config", cfg, *argv) == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err


class TestConfigFile:
    def test_config_sets_defaults_and_cli_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"base_rate": 8.0}))
        plain = tmp_path / "plain.csv"
        via_cfg = tmp_path / "cfg_out.csv"
        override = tmp_path / "override.csv"
        cli("synth", "--out", plain, "--n-windows", 8, "--seed", 3, "--base-rate", 8.0, *TAU)
        cli("--config", cfg, "synth", "--out", via_cfg, "--n-windows", 8, "--seed", 3, *TAU)
        cli(
            "--config", cfg, "synth", "--out", override, "--n-windows", 8, "--seed", 3,
            "--base-rate", 2.0, *TAU,
        )
        assert via_cfg.read_bytes() == plain.read_bytes()  # config filled the default
        assert override.read_bytes() != plain.read_bytes()  # explicit flag beat config

    def test_missing_config_exits_2(self, tmp_path):
        rc = cli("--config", tmp_path / "none.json", "synth", "--out", tmp_path / "o.csv",
                 "--n-windows", 8, "--seed", 1)
        assert rc == 2

    def test_bad_json_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = cli("--config", cfg, "synth", "--out", tmp_path / "o.csv",
                 "--n-windows", 8, "--seed", 1)
        assert rc == 2

    def test_unknown_config_keys_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sead": 3, "base_rate": 8.0, "budget_whh": 1.0}))
        out = tmp_path / "o.csv"
        rc = cli("--config", cfg, "synth", "--out", out, "--n-windows", 8, "--seed", 1, *TAU)
        assert rc == 2
        err = capsys.readouterr().err
        assert "sead" in err and "budget_whh" in err and "base_rate" not in err
        assert not out.exists()

    def test_config_keys_of_any_subcommand_accepted(self, tmp_path):
        # keys are checked against every subcommand, not only the one run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"base_rate": 8.0, "episodes": 5, "golden_counter": "g"}))
        rc = cli("--config", cfg, "synth", "--out", tmp_path / "o.csv", "--n-windows", 8,
                 "--seed", 1, *TAU)
        assert rc == 0

    def test_config_string_is_read_by_the_flag_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"base_rate": "8", "fps": "1", "scene_id": "--"}))
        plain, via_cfg = tmp_path / "plain.csv", tmp_path / "cfg_out.csv"
        cli("synth", "--out", plain, "--n-windows", 8, "--seed", 3, "--base-rate", 8.0,
            "--scene-id=--", *TAU)
        assert cli("--config", cfg, "synth", "--out", via_cfg, "--n-windows", 8, "--seed", 3,
                   *TAU) == 0
        assert via_cfg.read_bytes() == plain.read_bytes()
        assert load_trace(via_cfg)[0].scene_id == "--"

    @pytest.mark.parametrize("key, value, message", [
        ("base_rate", True, "expected a string or a number, got True"),
        ("base_rate", None, "expected a string or a number, got None"),
        ("base_rate", [8.0], "expected a string or a number, got [8.0]"),
        ("base_rate", "fast", "argument --base-rate: invalid float value: 'fast'"),
        ("fps", 1.5, "argument --fps: invalid int value: '1.5'"),
        ("scene_id", {"a": 1}, "expected a string or a number, got {'a': 1}"),
    ])
    def test_bad_config_value_exits_2_naming_file_and_key(self, tmp_path, capsys, key, value,
                                                         message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "o.csv"
        rc = cli("--config", cfg, "synth", "--out", out, "--n-windows", 8, "--seed", 1, *TAU)
        assert rc == 2
        assert f"{cfg}: {key}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budgets, message", [
        ([0.05, "x"], "argument --budget-wh: invalid float value: 'x'"),
        ([], "expected a string, a number, or a non-empty list of them, got []"),
        ([[0.05]], "expected a string, a number, or a non-empty list of them, got [[0.05]]"),
    ])
    def test_config_list_goes_through_nargs(self, workspace, tmp_path, capsys, budgets, message):
        root, scene, counters, profiles = workspace
        pipe = ["--trace", scene, "--counters", counters, "--profiles-dir", profiles,
                "--horizon", 3, "--seed", 5, "--out-dir", tmp_path / "plans", *TAU]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget_wh": [0.05, "0.1"]}))
        assert cli("--config", cfg, "plan", *pipe) == 0
        assert sorted(p.name for p in (tmp_path / "plans").iterdir()) == [
            "plan_h3_0.05wh.json", "plan_h3_0.1wh.json"
        ]
        cfg.write_text(json.dumps({"budget_wh": budgets}))
        assert cli("--config", cfg, "plan", *pipe) == 2
        assert f"{cfg}: budget_wh: {message}" in capsys.readouterr().err
        # a flag of one value takes the same key as a scalar only
        cfg.write_text(json.dumps({"budget_wh": 0.05}))
        assert cli("--config", cfg, "plan", *pipe) == 0


GUARD_COUNTERS = [
    {"counter_id": "cheap", "energy_per_frame_j": 0.2, "ratio_mean": 0.85, "ratio_std": 0.1},
    {"counter_id": "gold", "energy_per_frame_j": 2.0, "offset_std": 0.1},
    {"counter_id": "mid", "energy_per_frame_j": 0.6, "ratio_mean": 0.95, "ratio_std": 0.05},
]


def test_counter_file_order_changes_no_artefact(tmp_path, monkeypatch):
    # the whole walkthrough, once per order of the counter-set file; every
    # path is relative, so the manifests name the same scene
    digests = []
    for name, entries in (("listed", GUARD_COUNTERS), ("reversed", GUARD_COUNTERS[::-1])):
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        Path("counters.json").write_text(json.dumps(entries))
        pipe = ["--trace", "scene.csv", "--counters", "counters.json", *TAU]
        fitted = [*pipe, "--profiles-dir", "profiles"]
        run = ["simulate", *fitted, "--budget-wh", 0.2, "--horizons", "3-4", "--seed", 21]
        assert cli("synth", "--out", "scene.csv", "--n-windows", 48, "--seed", 7,
                   "--base-rate", 4.0, "--amplitude", 2.0, "--period-windows", 8, *TAU) == 0
        assert cli("profile", *pipe, "--out-dir", "profiles", "--train-horizons", "0-2",
                   "--threshold", 0.25, "--min-pairs", 24, "--seed", 11) == 0
        assert cli("fronts", *fitted, "--horizon", 3, "--seed", 5, "--out-dir", "fronts") == 0
        assert cli("plan", *fitted, "--horizon", 3, "--seed", 5, "--budget-wh", 0.05, 0.2,
                   "--out-dir", "plans") == 0
        assert cli("train", *fitted, "--train-horizons", "0-2", "--budget-wh", 0.2,
                   "--episodes", 2, "--seed", 13, "--out-dir", "agents") == 0
        assert cli(*run, "--planner", "oracle", "--out", "runs/oracle.csv") == 0
        assert cli(*run, "--planner", "uni", "--validation-horizon", 5,
                   "--out", "runs/uni.csv") == 0
        assert cli(*run, "--planner", "golden", "--golden-counter", "gold",
                   "--out", "runs/golden.csv") == 0
        assert cli(*run, "--planner", "rl", "--agents", "agents/agents_0.2wh.json",
                   "--out", "runs/rl.csv") == 0
        assert cli("report", "--runs-dir", "runs", "--out", "report.csv") == 0
        digests.append({
            p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in run_dir.rglob("*") if p.is_file() and p.name != "counters.json"
        })
    listed, reversed_ = digests
    # scene and sidecar, profiles, fronts, plans, checkpoint and log, runs
    # and manifests, report
    assert len(listed) == 2 + 3 + 8 + 2 + 2 + 4 * 2 + 1
    assert listed == reversed_


def test_unaffordable_counter_changes_no_result(workspace, tmp_path):
    # metamorphic: a counter that can never run, since MIN_FRAMES of its
    # frames cost more than the whole budget, is the same input as no counter
    # when its id sorts last (a new id that sorts first shifts the others'
    # seeds, which are keyed by rank in id order). It is noiseless, so it
    # tops the cheap counter's fronts and reaches the allocator
    root, scene, counters, profiles = workspace
    budget_wh, dear_j = 0.2, 100.0
    assert MIN_FRAMES * dear_j > budget_wh * 3600.0
    cheap = [c for c in json.loads(counters.read_text()) if c["counter_id"] == "cheap"]
    sets = {"base": tmp_path / "base.json", "more": tmp_path / "more.json"}
    sets["base"].write_text(json.dumps(cheap))
    sets["more"].write_text(json.dumps([*cheap, {"counter_id": "zz_dear",
                                                  "energy_per_frame_j": dear_j}]))
    results = {}
    for label, cs in sets.items():
        pipe = ["--trace", scene, "--counters", cs, *TAU]
        ps = tmp_path / label / "profiles"
        assert cli("profile", *pipe, "--out-dir", ps, "--train-horizons", "0-2",
                   "--threshold", "0.25", "--min-pairs", 24, "--seed", 11) == 0
        results[label, "profile"] = (ps / "profile_cheap.json").read_bytes()
        assert cli("fronts", *pipe, "--profiles-dir", ps, "--horizon", 3, "--seed", 5,
                   "--out-dir", tmp_path / label / "fronts") == 0
        run = ["simulate", *pipe, "--profiles-dir", ps, "--budget-wh", budget_wh,
               "--horizons", "3-5", "--seed", 21]
        for planner, extra in (("oracle", []), ("uni", ["--validation-horizon", 5]),
                               ("golden", ["--golden-counter", "cheap"])):
            out = tmp_path / label / f"{planner}.csv"
            assert cli(*run, "--planner", planner, *extra, "--out", out) == 0
            results[label, planner] = out.read_bytes()
    assert any(",zz_dear," in p.read_text() for p in (tmp_path / "more" / "fronts").iterdir())
    for part in ("profile", "oracle", "uni", "golden"):
        assert results["more", part] == results["base", part], part

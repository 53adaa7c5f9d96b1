"""The benchmark's workloads, the passes they run and the checks on their outputs.

Every workload is a closed loop from one client: each stage or library call
starts only after the previous one returned, and no two processes run at
once. Inputs come only from the workload seed. See NOTES.md for why each
workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wattcount import cli
from wattcount._rng import derive_seed
from wattcount.counters import CounterModel, apply_counter, profile_errors, window_mean_pairs
from wattcount.fronts import EnergyModel
from wattcount.oracle import plan_horizon
from wattcount.simulate import (
    FixedCounterPlannerSpec,
    OraclePlannerSpec,
    oracle_fronts,
    score,
    select_uni_counter,
    simulate_scene,
)
from wattcount.traces import (
    DetectionLog,
    RoiSpec,
    SynthPattern,
    WindowSpec,
    load_detection_log,
    load_trace,
    save_detection_log,
    save_trace,
    synth_trace,
    trace_from_detections,
)

ROOT = Path(__file__).resolve().parent.parent
STAGE_PY = Path(__file__).resolve().parent / "stage.py"
STAGE_TIMEOUT_S = 150


class Tally:
    """Operations attempted and failed in one run; a failed check is a failure.

    ``between``, when set, is called before each library operation, and the
    time it takes is left out of ``now()``, the clock every in-process pass
    times itself with.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.between = None
        self._paused_s = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused_s

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def call(self, name: str, fn, *args, **kwargs):
        """Run one library operation; an exception counts as a failure and propagates."""
        if self.between is not None:
            t0 = time.perf_counter()
            self.between()
            self._paused_s += time.perf_counter() - t0
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.record(name, False, repr(exc))
            raise
        self.record(name, True)
        return result


@dataclass
class PassRecord:
    """What one pass of a workload measured and produced."""

    wall_s: float
    sim_windows: int = 0
    sim_s: float = 0.0
    quality: dict = field(default_factory=dict)  # planner -> {coverage, rel_width, n_windows}
    digests: dict = field(default_factory=dict)  # artefact -> sha256
    extra: dict = field(default_factory=dict)


def child_env() -> dict:
    """Environment for every process the benchmark starts: this checkout's
    sources only (the thread pins are inherited from the caller)."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def import_probe(workdir: Path, name: str) -> float:
    """Seconds a fresh interpreter spends importing wattcount.cli."""
    timing = workdir / f"{name}.import"
    subprocess.run(
        [sys.executable, str(STAGE_PY), str(timing)],
        env=child_env(), cwd=workdir, check=True, timeout=STAGE_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    return read_import_timing(timing)


def read_import_timing(path: Path) -> float:
    seconds, module_file = path.read_text().split()
    if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"wattcount imported from {module_file}, not from this checkout")
    return float(seconds)


def digest_tree(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[p.relative_to(root).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def digest_text(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_identical(tally, records) -> None:
    """Every pass of one seed must leave byte-identical artefacts."""
    digests = [r.digests for r in records if r.digests]
    same = len(digests) == len(records) and all(d == digests[0] for d in digests)
    diff = sorted({k for d in digests for k in d if d.get(k) != digests[0].get(k)})
    tally.record("artefacts byte-identical across passes", same, f"differ: {diff[:5]}")


def check_simulation(tally, label, results, ledgers, budget_j, expected_windows) -> None:
    """Ledgers within budget, the expected window count, finite intervals."""
    over = [l.spent_j - l.budget_j for l in ledgers if l.spent_j > budget_j + 1e-6]
    tally.record(f"{label}: ledgers within budget", not over, f"overspent by {over}")
    n = sum(len(r) for r in results)
    tally.record(f"{label}: window count", n == expected_windows, f"{n} != {expected_windows}")
    bad = [
        r.window_index for block in results for r in block
        if not (math.isfinite(r.ci_sum.center) and math.isfinite(r.ci_sum.half_width))
    ]
    tally.record(f"{label}: finite intervals", not bad, f"non-finite windows {bad[:5]}")


def results_lines(results):
    for block in results:
        for r in block:
            yield (
                f"{r.window_index},{r.action.counter_id},{r.action.n_frames},{r.energy_j!r},"
                f"{r.ci_sum.center!r},{r.ci_sum.half_width!r},{r.true_sum}"
            )


def quality_of(results, ledgers) -> dict:
    report = score(results, ledgers)
    return {
        "coverage": report.coverage_probability,
        "rel_width": report.mean_ci_width,
        "n_windows": report.n_windows,
    }


# ---------------------------------------------------------------------------
# walkthrough: the README command line walkthrough, stage by stage


README_SEED = 7
# stage seeds are the README's, offset from its scene seed 7
SEED_OFFSETS = {"profile": 4, "fronts": 14, "plan": 24, "train": 22, "simulate": 34}
# the README trains 2000 episodes (~46 s here); fewer keep one pass near 30 s
# so the benchmark's repeated runs fit their time budget
EPISODES = 200
EVAL_HORIZONS = range(4, 14)
HORIZON_WINDOWS = 48
COUNTERS_JSON = [
    {"counter_id": "cheap", "energy_per_frame_j": 0.2, "ratio_mean": 0.85, "ratio_std": 0.1},
    {"counter_id": "golden", "energy_per_frame_j": 2.45},
]
# README table, rounded as printed there: (coverage, mean rel width)
README_TABLE = {"oracle": (0.983, 0.0584), "uni": (0.990, 0.0593), "golden": (0.938, 0.1851)}
# stages a measured run repeats on a copy of its pass, and the outputs they rewrite
RERUN_STAGES = ("simulate_oracle", "simulate_uni", "simulate_golden", "simulate_rl", "report")
RERUN_OUTPUTS = ("runs", "report.csv")


def walkthrough_stages(seed: int):
    """(stage name, wattcount argv) in README order."""
    s = {k: str(seed + v) for k, v in SEED_OFFSETS.items()}
    pipe = ["--trace", "scene.csv", "--counters", "counters.json", "--tau-seconds", "600"]
    prof = [*pipe, "--profiles-dir", "profiles"]
    sim = [*prof, "--budget-wh", "1.03", "--horizons", "4-13", "--seed", s["simulate"]]
    return [
        ("synth", ["synth", "--out", "scene.csv", "--scene-id", "lot", "--base-rate", "4",
                   "--amplitude", "0.5", "--n-windows", "672", "--tau-seconds", "600",
                   "--seed", str(seed)]),
        ("profile", ["profile", *pipe, "--out-dir", "profiles", "--train-horizons", "0-2",
                     "--threshold", "0.25", "--seed", s["profile"]]),
        ("fronts", ["fronts", *prof, "--out-dir", "fronts", "--horizon", "3", "--windows", "0-3",
                    "--seed", s["fronts"]]),
        ("plan", ["plan", *prof, "--out-dir", "plans", "--horizon", "3", "--budget-wh", "1.03",
                  "--seed", s["plan"]]),
        ("train", ["train", *prof, "--out-dir", "agents", "--train-horizons", "0-2",
                   "--budget-wh", "1.03", "--episodes", str(EPISODES), "--seed", s["train"]]),
        ("simulate_oracle", ["simulate", *sim, "--planner", "oracle", "--out", "runs/oracle.csv"]),
        ("simulate_uni", ["simulate", *sim, "--planner", "uni", "--out", "runs/uni.csv",
                          "--validation-horizon", "3"]),
        ("simulate_golden", ["simulate", *sim, "--planner", "golden", "--out", "runs/golden.csv",
                             "--golden-counter", "golden"]),
        ("simulate_rl", ["simulate", *sim, "--planner", "rl", "--out", "runs/rl.csv",
                         "--agents", "agents/agents_1.03wh.json"]),
        ("report", ["report", "--runs-dir", "runs", "--out", "report.csv"]),
    ]


def _read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_walkthrough(art: Path, seed: int, tally: Tally) -> dict:
    """Checks on one pass's artefacts; returns planner quality from report.csv."""
    expected = {(h, w) for h in EVAL_HORIZONS for w in range(HORIZON_WINDOWS)}
    for planner in ("oracle", "uni", "golden", "rl"):
        label = f"walkthrough {planner}"
        rows = _read_csv(art / "runs" / f"{planner}.csv")
        manifest = json.loads((art / "runs" / f"{planner}.manifest.json").read_text())
        budget = float(manifest["budget_j"])
        keys = [(int(r["horizon"]), int(r["window"])) for r in rows]
        tally.record(f"{label}: one row per window", sorted(keys) == sorted(expected),
                     f"{len(keys)} rows, {len(set(keys) ^ expected)} mismatched")
        spent: dict = {}
        for r in rows:
            spent[r["horizon"]] = spent.get(r["horizon"], 0.0) + float(r["energy_j"])
        over = {h: e - budget for h, e in spent.items() if e > budget + 1e-6}
        tally.record(f"{label}: ledgers within budget", not over, f"overspent {over}")
        tally.record(f"{label}: manifest budget left", min(manifest["unused_j"]) >= -1e-6,
                     f"unused_j {min(manifest['unused_j'])}")
        finite = all(
            math.isfinite(float(r["center"])) and math.isfinite(float(r["half_width"]))
            and float(r["half_width"]) >= 0
            for r in rows
        )
        tally.record(f"{label}: finite intervals", finite)

    plan = json.loads((art / "plans" / "plan_h3_1.03wh.json").read_text())
    tally.record("walkthrough plan within budget", plan["spent_j"] <= plan["budget_j"],
                 f"{plan['spent_j']} > {plan['budget_j']}")
    for w in range(4):
        pts = [(float(r["energy_j"]), float(r["ci_width"]))
               for r in _read_csv(art / "fronts" / f"front_h3_w{w}.csv")]
        monotone = all(a[0] < b[0] and a[1] > b[1] for a, b in zip(pts, pts[1:]))
        tally.record(f"walkthrough front w{w} monotone", bool(pts) and monotone)

    report = {r["planner"]: r for r in _read_csv(art / "report.csv")}
    quality = {}
    for planner in ("oracle", "uni", "golden", "rl"):
        row = report.get(planner)
        ok = row is not None and int(row["n_windows"]) == len(expected)
        tally.record(f"walkthrough report row {planner}", ok)
        if ok:
            quality[planner] = {
                "coverage": float(row["coverage"]),
                "rel_width": float(row["mean_ci_width"]),
                "n_windows": int(row["n_windows"]),
            }
    if seed == README_SEED:
        for planner, (cov, width) in README_TABLE.items():
            q = quality.get(planner, {"coverage": math.nan, "rel_width": math.nan})
            got = (round(q["coverage"], 3), round(q["rel_width"], 4))
            tally.record(f"walkthrough README row {planner}", got == (cov, width),
                         f"{got} != {(cov, width)}")
    return quality


class Walkthrough:
    name = "walkthrough"
    measured_mode = "subprocess"
    min_passes = 1

    def prepare(self, seed: int):
        return {"seed": seed}

    def run_pass(self, inputs, passdir: Path, tally: Tally, mode: str, tracer=None,
                 between=None) -> PassRecord:
        """One pass of every stage; ``between`` is called before each stage,
        outside its timing."""
        art = fresh_dir(passdir / "art")
        (art / "counters.json").write_text(json.dumps(COUNTERS_JSON, indent=2) + "\n")
        return self._run_stages(inputs["seed"], walkthrough_stages(inputs["seed"]), art,
                                fresh_dir(passdir / "logs"), tally, mode, tracer, between)

    def rerun_simulations(self, inputs, done_art: Path, passdir: Path, tally: Tally,
                          between=None) -> PassRecord:
        """The simulate and report stages once more, as processes, on a copy of
        a finished pass's inputs. The copy must end byte-identical to that pass."""
        art = passdir / "art"
        shutil.rmtree(art, ignore_errors=True)
        shutil.copytree(done_art, art, ignore=lambda d, names: (
            [n for n in names if n in RERUN_OUTPUTS] if Path(d) == done_art else []))
        stages = [s for s in walkthrough_stages(inputs["seed"]) if s[0] in RERUN_STAGES]
        return self._run_stages(inputs["seed"], stages, art, fresh_dir(passdir / "logs"), tally,
                                "subprocess", None, between)

    def _run_stages(self, seed, stages, art, logs, tally, mode, tracer, between) -> PassRecord:
        stage_s, import_s = {}, []
        for name, argv in stages:
            if between is not None:
                between()
            if mode == "subprocess":
                rc, wall, imp = self._run_subprocess(name, argv, art, logs)
                import_s.append(imp)
            else:
                rc, wall = self._run_inprocess(name, argv, art, logs, tracer)
            stage_s[name] = wall
            if not tally.record(f"stage {name}", rc == 0, f"exit code {rc}, see {logs / name}.log"):
                break
        rec = PassRecord(wall_s=sum(stage_s.values()),
                         extra={"stage_s": stage_s, "import_s": import_s})
        if len(stage_s) < len(stages):
            return rec
        rec.quality = check_walkthrough(art, seed, tally)
        sims = [n for n in stage_s if n.startswith("simulate_")]
        rec.sim_windows = sum(q["n_windows"] for q in rec.quality.values())
        rec.sim_s = sum(stage_s[n] for n in sims)
        rec.extra["train_episodes"] = EPISODES
        rec.digests = digest_tree(art)
        return rec

    def _run_subprocess(self, name, argv, art, logs):
        timing = logs / f"{name}.import"
        t0 = time.perf_counter()
        with open(logs / f"{name}.log", "w") as log:
            proc = subprocess.run(
                [sys.executable, str(STAGE_PY), str(timing), *argv],
                cwd=art, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=STAGE_TIMEOUT_S,
            )
        wall = time.perf_counter() - t0
        imp = read_import_timing(timing) if timing.exists() else math.nan
        return proc.returncode, wall, imp

    def _run_inprocess(self, name, argv, art, logs, tracer):
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(art)
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                t0 = time.perf_counter()
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span(f"cli.{name}"):
                        rc = cli.main(argv)
                wall = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
            (logs / f"{name}.log").write_text(buf.getvalue())
        return rc, wall


# ---------------------------------------------------------------------------
# oracle_days: in-process library run on a scene with idle nights


OD_SPEC = WindowSpec(tau_seconds=1800, horizon_windows=48, alpha=0.95)
OD_PATTERN = SynthPattern(base_rate=1.0, diurnal_amplitude=1.5, period_windows=48)
OD_COUNTERS = (
    CounterModel("cheap", energy_per_frame_j=0.2, ratio_mean=0.85, ratio_std=0.1),
    CounterModel("golden", energy_per_frame_j=2.45),
)
OD_EM = EnergyModel(e_capture_per_frame=0.05)
OD_THRESHOLD = 1.0
OD_PROFILE_DAYS = (0, 1, 2)
OD_VALIDATION_DAY = 3
OD_EVAL_DAYS = (4, 5)
OD_BUDGETS_J = (3700.0, 6000.0, 12000.0)
OD_SWEEP_POINTS = 24


def profile_counters(trace, days, counters, spec, threshold, seed, tally, label):
    profiles = {}
    for i, c in enumerate(counters):
        pairs = []
        for h in days:
            truth = trace.horizon_slice(h, spec)
            observed = tally.call(f"{label} apply_counter", apply_counter, truth, c,
                                  derive_seed(seed, 60, h, i))
            pairs.extend(window_mean_pairs(truth, observed, spec))
        profiles[c.counter_id] = tally.call(
            f"{label} profile_errors", profile_errors, pairs, threshold, counter_id=c.counter_id
        )
    return profiles


def run_planners(trace, planners_for_budget, budgets, eval_days, counters, em, profiles, spec,
                 seed, tally, label):
    """Simulate each planner at each budget; pooled quality per planner."""
    pooled: dict = {}
    lines = []
    sim_s = 0.0
    windows = 0
    for budget in budgets:
        for planner in planners_for_budget(budget):
            t0 = tally.now()
            results, ledgers = tally.call(
                f"{label} simulate {planner.name}", simulate_scene,
                planner, trace, list(eval_days), counters, em, profiles, budget, spec, seed,
            )
            sim_s += tally.now() - t0
            expected = len(eval_days) * spec.horizon_windows
            check_simulation(tally, f"{label} {planner.name} {budget:g} J", results, ledgers,
                             budget, expected)
            windows += expected
            acc = pooled.setdefault(planner.name, ([], []))
            acc[0].extend(results)
            acc[1].extend(ledgers)
            lines.append(f"{planner.name},{budget!r}")
            lines.extend(results_lines(results))
    quality = {name: quality_of(res, led) for name, (res, led) in pooled.items()}
    return quality, windows, sim_s, digest_text(lines)


class OracleDays:
    name = "oracle_days"
    measured_mode = "inprocess"
    min_passes = 2

    def prepare(self, seed: int):
        return {"seed": seed}

    def run_pass(self, inputs, passdir: Path, tally: Tally, mode: str, tracer=None) -> PassRecord:
        seed = inputs["seed"]
        label = "oracle_days"
        n_days = max(OD_EVAL_DAYS) + 1
        t0 = tally.now()
        trace = tally.call(f"{label} synth_trace", synth_trace, OD_PATTERN,
                           n_days * OD_SPEC.horizon_windows, OD_SPEC, seed, scene_id="night-idle")
        profiles = profile_counters(trace, OD_PROFILE_DAYS, OD_COUNTERS, OD_SPEC, OD_THRESHOLD,
                                    seed, tally, label)
        cheap = profiles["cheap"]
        tally.record(f"{label}: both CI branches profiled", cheap.ratio_usable and cheap.offset_usable)
        sim_seed = derive_seed(seed, 1)

        def planners(budget):
            uni_id = tally.call(f"{label} select_uni_counter", select_uni_counter, trace,
                                OD_VALIDATION_DAY, OD_COUNTERS, OD_EM, profiles, budget, OD_SPEC,
                                sim_seed)
            return (OraclePlannerSpec(), FixedCounterPlannerSpec(uni_id, "uni"),
                    FixedCounterPlannerSpec("golden", "golden"))

        quality, windows, sim_s, results_digest = run_planners(
            trace, planners, OD_BUDGETS_J, OD_EVAL_DAYS, OD_COUNTERS, OD_EM, profiles, OD_SPEC,
            sim_seed, tally, label,
        )

        # budget sweep of the allocator on one day's fronts
        fronts = tally.call(f"{label} oracle_fronts", oracle_fronts,
                            trace.horizon_slice(OD_VALIDATION_DAY, OD_SPEC), OD_COUNTERS, OD_EM,
                            profiles, OD_SPEC, derive_seed(seed, 2))
        lo = sum(f.points[0].energy_j for f in fronts)
        hi = sum(f.points[-1].energy_j for f in fronts)
        sweep = []
        for budget in np.linspace(lo, hi, OD_SWEEP_POINTS).tolist():
            plan = tally.call(f"{label} plan_horizon", plan_horizon, fronts, budget)
            tally.record(f"{label}: sweep plan within budget", plan.spent_j <= budget + 1e-9,
                         f"{plan.spent_j} > {budget}")
            sweep.append(f"{budget!r},{plan.spent_j!r}," + ";".join(
                f"{a.counter_id}:{a.n_frames}" for a in plan.actions))
        wall_s = tally.now() - t0
        return PassRecord(
            wall_s=wall_s, sim_windows=windows, sim_s=sim_s, quality=quality,
            digests={"results": results_digest, "sweep": digest_text(sweep)},
        )


# ---------------------------------------------------------------------------
# ingest_io: the real-trace path, from a detection log to planners


IO_LOG_FRAMES = 86_400  # one day at 1 fps
IO_START_EPOCH = 1_600_000_000.0
IO_FRAME = (640.0, 480.0)
IO_BOXES_PER_FRAME = 4.0
IO_ROI = RoiSpec(region=(160.0, 120.0, 480.0, 360.0), travel_seconds=1.0)
IO_CLASS = "car"
IO_SPEC = WindowSpec(tau_seconds=600, horizon_windows=48, alpha=0.95)
IO_COUNTERS = OD_COUNTERS
IO_EM = OD_EM
IO_THRESHOLD = 0.25
IO_VALIDATION_H = 0
IO_EVAL_H = (1, 2)
# 24 budgets from 1.03 Wh a day (the README budget) up to four times that, so
# simulation is a large enough share of a pass to time steadily
IO_BUDGETS_J = tuple(3708.0 * k for k in np.linspace(1.0, 4.0, 24).tolist())


def make_detection_log(seed: int) -> DetectionLog:
    """A day of detections at 1 fps: two classes, busy days and empty nights.

    The empty nights give every counter profile an offset branch, so no
    window of the day falls into an unprofiled regime.
    """
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    t = np.arange(IO_LOG_FRAMES, dtype=np.float64)
    rate = IO_BOXES_PER_FRAME * np.maximum(0.0, 0.3 + np.sin(2.0 * np.pi * t / IO_LOG_FRAMES))
    per_frame = rng.poisson(rate)
    total = int(per_frame.sum())
    w = np.round(rng.uniform(20.0, 90.0, total), 1)
    h = np.round(rng.uniform(20.0, 90.0, total), 1)
    x0 = np.round(rng.uniform(0.0, IO_FRAME[0] - 90.0, total), 1)
    y0 = np.round(rng.uniform(0.0, IO_FRAME[1] - 90.0, total), 1)
    labels = np.where(rng.random(total) < 0.6, "car", "person").tolist()
    boxes = list(zip(x0.tolist(), y0.tolist(), (x0 + w).tolist(), (y0 + h).tolist(), labels))
    frames = []
    pos = 0
    for k in per_frame.tolist():
        frames.append(tuple(boxes[pos:pos + k]))
        pos += k
    return DetectionLog(timestamps=tuple((t + IO_START_EPOCH).tolist()), boxes=tuple(frames))


class IngestIo:
    name = "ingest_io"
    measured_mode = "inprocess"
    min_passes = 2

    def prepare(self, seed: int):
        log = make_detection_log(seed)
        # the generated log lives for the whole run; keep its million objects
        # out of the collector's full sweeps so they do not slow every pass
        gc.collect()
        gc.freeze()
        return {"seed": seed, "log": log}

    def run_pass(self, inputs, passdir: Path, tally: Tally, mode: str, tracer=None) -> PassRecord:
        seed, log = inputs["seed"], inputs["log"]
        label = "ingest_io"
        d = fresh_dir(passdir / "art")
        io_s = 0.0
        frames = 0

        def timed(name, fn, *args, n_frames):
            nonlocal io_s, frames
            t = tally.now()
            result = tally.call(f"{label} {name}", fn, *args)
            io_s += tally.now() - t
            frames += n_frames
            return result

        t0 = tally.now()
        n_log = len(log.timestamps)
        timed("save_detection_log", save_detection_log, log, d / "detections.jsonl", n_frames=n_log)
        loaded = timed("load_detection_log", load_detection_log, d / "detections.jsonl",
                       n_frames=n_log)
        tally.record(f"{label}: detection log round trip",
                     loaded.timestamps == log.timestamps and loaded.boxes == log.boxes)
        trace = timed("trace_from_detections", trace_from_detections, loaded, IO_ROI, IO_CLASS,
                      IO_SPEC, 1, "ingested", n_frames=n_log)
        del loaded  # a deployment drops the log once it is ingested
        timed("save_trace", save_trace, trace, d / "ingested.csv", IO_SPEC, n_frames=trace.n_frames)
        back, tau = timed("load_trace", load_trace, d / "ingested.csv", n_frames=trace.n_frames)
        tally.record(f"{label}: trace round trip",
                     tau == IO_SPEC.tau_seconds and np.array_equal(back.counts, trace.counts))

        n_h = back.n_frames // (IO_SPEC.window_frames(back.fps) * IO_SPEC.horizon_windows)
        profiles = profile_counters(back, range(n_h), IO_COUNTERS, IO_SPEC, IO_THRESHOLD, seed,
                                    tally, label)
        sim_seed = derive_seed(seed, 1)

        def planners(budget):
            uni_id = tally.call(f"{label} select_uni_counter", select_uni_counter, back,
                                IO_VALIDATION_H, IO_COUNTERS, IO_EM, profiles, budget, IO_SPEC,
                                sim_seed)
            return (FixedCounterPlannerSpec(uni_id, "uni"), FixedCounterPlannerSpec("golden", "golden"))

        quality, windows, sim_s, results_digest = run_planners(
            back, planners, IO_BUDGETS_J, IO_EVAL_H, IO_COUNTERS, IO_EM, profiles, IO_SPEC,
            sim_seed, tally, label,
        )
        wall_s = tally.now() - t0
        digests = digest_tree(d)
        digests["results"] = results_digest
        return PassRecord(
            wall_s=wall_s, sim_windows=windows, sim_s=sim_s, quality=quality, digests=digests,
            extra={"trace_frames": frames, "trace_io_s": io_s},
        )


WORKLOADS = {w.name: w for w in (Walkthrough(), OracleDays(), IngestIo())}

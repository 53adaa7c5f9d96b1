"""wattcount benchmark: one command per workload run, checked outputs, named metrics.

usage: python3 perfbench/run.py --workload {walkthrough,oracle_days,ingest_io}
                                --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports wattcount from ``src/`` of
that checkout and nowhere else. With ``--trace 0`` it measures the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it makes a
separate traced run that times every call into each module's public
functions and prints the per-layer metrics. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it carries the run stamp, per-pass figures and artefact digests, and
the same details, with the spans of a traced run, are written under
``perfbench/out/``. See NOTES.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads here and inherited by children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("walkthrough", "oracle_days", "ingest_io"))
    p.add_argument("--seed", type=int, default=7, help="workload seed (7 is the README's)")
    p.add_argument("--seconds", type=float, default=15.0, help="measure passes for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_stamp(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((SRC / "wattcount").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def mean_quality(quality: dict, key: str) -> float:
    """Mean over the workload's planners, leaving out the trained one.

    How well the shortened training lands moves from seed to seed far more
    than any other output, so rl quality is reported on its own
    (rl_rel_width in the traced run) and kept out of this guard.
    """
    values = [q[key] for planner, q in quality.items() if planner != "rl"]
    return statistics.fmean(values) if values else math.nan


def measured_run(wl, seed, seconds, tally, outdir):
    """Untraced passes for the end-to-end metrics.

    Timings are totals over every pass of the run, not the median of a few
    passes: a shared host's speed can swing by a third within seconds, and
    only time summed over the whole run evens that out. The host also drifts
    over minutes, so wall_s and sim_windows_per_s are then stated at the
    reference speed of hostspeed.HostSpeed, sampled all through this run,
    outside every timing. The raw figures are in the info.
    """
    from hostspeed import HostSpeed

    in_process = wl.measured_mode == "inprocess"
    with HostSpeed() as speed:
        # the walkthrough samples before each stage, the in-process workloads
        # before library calls at most every hostspeed.SAMPLE_EVERY_S
        hook = {} if in_process else {"between": speed.sample}
        if in_process:
            tally.between = speed.maybe_sample
        try:
            values, info = measured_passes(wl, seed, seconds, tally, outdir, speed, hook)
        finally:
            tally.between = None
    return values, info


def measured_passes(wl, seed, seconds, tally, outdir, speed, hook):
    """The passes of a measured run, sampling host speed around them."""
    from workloads import check_identical, import_probe

    in_process = wl.measured_mode == "inprocess"
    inputs = wl.prepare(seed)
    records, setup = [], []
    while len(records) < wl.min_passes or sum(r.wall_s for r in records) < seconds:
        if in_process:
            # set-up samples spread between the passes, not bunched in time
            setup.append(import_probe(outdir, f"probe{len(setup)}"))
        records.append(wl.run_pass(inputs, outdir / "pass", tally, wl.measured_mode, **hook))
    checked = list(records)
    sim_records = list(records)
    if in_process:
        while len(setup) < SETUP_SAMPLES:
            setup.append(import_probe(outdir, f"probe{len(setup)}"))
    else:
        # the simulate and report stages again, as processes, on a copy of the
        # pass: a second sample of simulation time, and its artefacts must match
        again = wl.rerun_simulations(inputs, outdir / "pass" / "art", outdir / "again", tally,
                                     **hook)
        checked.append(again)
        sim_records.append(again)
        # every stage process timed its own import
        setup = [s for r in checked for s in r.extra["import_s"]]
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    speed.sample()
    check_identical(tally, checked)
    factor = speed.factor()
    sim_s = sum(r.sim_s for r in sim_records)
    raw_wall_s = sum(r.wall_s for r in records) / len(records)
    raw_sim_rate = sum(r.sim_windows for r in sim_records) / sim_s if sim_s else math.nan
    last = records[-1]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": raw_wall_s / factor,
        "sim_windows_per_s": raw_sim_rate * factor,
        "peak_rss_mb": peak_rss_mb,
        "rel_width": mean_quality(last.quality, "rel_width"),
        "coverage": mean_quality(last.quality, "coverage"),
    }
    info = {
        "host_speed_factor": factor,
        "reference_job_s": speed.samples,
        "raw_wall_s": raw_wall_s,
        "raw_sim_windows_per_s": raw_sim_rate,
        "passes": [{"wall_s": r.wall_s, "sim_windows": r.sim_windows, "sim_s": r.sim_s}
                   for r in sim_records],
        "setup_samples_s": setup,
        "quality": last.quality,
        "digests": last.digests,
    }
    if "stage_s" in last.extra and last.extra["stage_s"]:
        stage_s = last.extra["stage_s"]
        info["stage_s"] = stage_s
        info["stage_share"] = {k: v / last.wall_s for k, v in stage_s.items()}
        if "train" in stage_s:
            info["train_episodes_per_s"] = last.extra["train_episodes"] / stage_s["train"]
    if "trace_frames" in last.extra:
        info["trace_frames_per_s"] = (sum(r.extra["trace_frames"] for r in records)
                                      / sum(r.extra["trace_io_s"] for r in records))
    return values, info


def layer_values(summary: dict, counts: dict, run_id: int) -> dict:
    """Per-layer metric values of one traced pass."""
    from tracing import STAGES, span_names

    by = summary["by_name"]
    v: dict = {}
    for name, kind in span_names():
        s = by.get(name, {})
        v[f"{name}.calls"] = s.get("calls", 0)
        v[f"{name}.self_s"] = s.get("self_s", 0.0)
        if kind == "full":
            v[f"{name}.p50_ms"] = s.get("p50_ms", 0.0)
            v[f"{name}.tail_ms"] = s.get("tail_ms", 0.0)

    def count(key):
        return counts.get((run_id, key), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    v["rng.keyed_uniforms.draws_per_call"] = ratio(
        count("rng.keyed_uniforms.draws"), v["rng.keyed_uniforms.calls"])
    v["counters.observe_counts.frames"] = int(count("counters.observe_counts.frames"))
    v["fronts.build_front.kept_ratio"] = ratio(
        count("fronts.build_front.kept"), summary.get("build_front_candidates", 0))
    v["agents.resolve_action.clamped"] = int(count("agents.resolve_action.clamped"))
    v["agents.resolve_action.clamp_ratio"] = ratio(
        v["agents.resolve_action.clamped"], v["agents.resolve_action.calls"])
    for stage in STAGES:
        v[f"cli.{stage}.s"] = by.get(f"cli.{stage}", {}).get("total_s", 0.0)
    io_s = sum(by.get(f"traces.{n}", {}).get("total_s", 0.0) for n in (
        "load_trace", "save_trace", "load_detection_log", "save_detection_log",
        "trace_from_detections"))
    v["trace_frames_per_s"] = ratio(count("traces.io_frames"), io_s)
    v["trace.unattributed_s"] = summary["unattributed_s"]
    v["trace.spans"] = summary["spans"]
    return v


def traced_run(wl, seed, tally, outdir):
    """One untraced and two traced in-process passes for the per-layer metrics."""
    import workloads
    from tracing import EXACT_COUNTS, Tracer

    setup = [workloads.import_probe(outdir, f"probe{i}") for i in range(SETUP_SAMPLES)]
    inputs = wl.prepare(seed)
    base = wl.run_pass(inputs, outdir / "pass", tally, "inprocess")
    tracer = Tracer()
    tracer.install(callers=(workloads,))
    traced = []
    try:
        for run_id in (1, 2):
            tracer.run_id = run_id
            traced.append(wl.run_pass(inputs, outdir / "pass", tally, "inprocess", tracer=tracer))
    finally:
        tracer.restore()
    workloads.check_identical(tally, [base, *traced])
    summaries = [tracer.summarize(i + 1, rec.wall_s) for i, rec in enumerate(traced)]
    layers = [layer_values(s, tracer.counts, i + 1) for i, s in enumerate(summaries)]
    for name in EXACT_COUNTS:
        a, b = layers[0][name], layers[1][name]
        tally.record(f"exact count {name} repeats", a == b, f"{a} != {b}")
    tracer.save(outdir / "spans.npz")

    values = dict(layers[0])
    values["cli.import_s"] = statistics.median(setup)
    values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - base.wall_s
    stage_s = base.extra.get("stage_s", {})
    values["train_episodes_per_s"] = (
        base.extra["train_episodes"] / stage_s["train"] if "train" in stage_s else 0.0)
    for planner, key, metric in (("oracle", "rel_width", "oracle_rel_width"),
                                 ("rl", "rel_width", "rl_rel_width"),
                                 ("oracle", "coverage", "oracle_coverage")):
        values[metric] = base.quality.get(planner, {}).get(key, 0.0)
    info = {
        "untraced_wall_s": base.wall_s,
        "traced_wall_s": [r.wall_s for r in traced],
        "setup_samples_s": setup,
        "quality": base.quality,
        "digests": base.digests,
        "self_s_by_name": {n: s["self_s"] for n, s in summaries[0]["by_name"].items()},
        "tail_pct": {n: s["tail_pct"] for n, s in summaries[0]["by_name"].items()},
        "exact_counts": {n: [layer[n] for layer in layers] for n in EXACT_COUNTS},
    }
    return values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wattcount" / "__init__.py").is_file():
        print(f"error: no wattcount sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wattcount

    if not Path(wattcount.__file__).resolve().is_relative_to(SRC):
        print(f"error: wattcount imported from {wattcount.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Tally, fresh_dir

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]
    outdir = fresh_dir(HERE / "out" / f"{args.workload}-trace{args.trace}")
    tally = Tally()
    info: dict = {"workload": args.workload, "trace": args.trace, "stamp": run_stamp(args.seed)}
    values: dict = {}
    t0 = time.perf_counter()
    try:
        if args.trace:
            values, extra = traced_run(wl, args.seed, tally, outdir)
        else:
            values, extra = measured_run(wl, args.seed, args.seconds, tally, outdir)
        info.update(extra)
    except Exception:  # a failed operation is already tallied; report and go on to the result
        info["exception"] = traceback.format_exc()
        tally.record("run completed", False, traceback.format_exc(limit=1).strip().splitlines()[-1])
    info["run_s"] = time.perf_counter() - t0

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        tally.record(f"metric {m['name']} measured", ok, f"value {value!r}")
        metrics[m["name"]] = {"value": value if ok else 0.0, "unit": m["unit"]}
    info["error_rate"] = tally.failed / tally.attempted
    info["failures"] = tally.failures
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (outdir / "result.json").write_text(
        json.dumps({"info": info, "result": result, "all_values": values}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

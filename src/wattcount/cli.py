"""Command line front end for the counting pipeline.

Subcommands cover the whole workflow: synthesize or ingest a scene, profile
counter errors on a training split, dump per-window fronts, compute offline
plans, train the online planner, simulate any planner over held-out
horizons, and aggregate runs into a comparison report.

Exit codes: 0 success, 2 usage or validation problems (including missing
input files), 1 unexpected internal errors. Budgets are taken in Wh per day
and converted at 3600 J/Wh; everything internal is joules. Commands that
draw randomness require an explicit --seed so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._rng import derive_seed, set_port_budget
from .agents import (
    AgentPair,
    TrainConfig,
    a2c_train,
    load_agent_pair,
    prepare_training_data,
    save_agent_pair,
    save_training_log,
)
from .ci import z_score
from .counters import (
    CounterModel,
    UnprofiledRegimeError,
    apply_counter,
    counter_seeds,
    load_profile,
    profile_errors,
    save_profile,
    window_mean_pairs,
)
from .fronts import EnergyModel, save_front, window_energy
from .oracle import plan_horizon, save_plan
from .simulate import (
    FixedCounterPlannerSpec,
    OraclePlannerSpec,
    RlPlannerSpec,
    comparison_row,
    load_results,
    oracle_fronts,
    horizon_seed,
    save_comparison,
    save_manifest,
    save_results,
    score,
    select_uni_counter,
    simulate_scene,
)
from .traces import (
    JsonObject,
    RoiSpec,
    SynthPattern,
    WindowSpec,
    load_detection_log,
    load_trace,
    read_json,
    read_json_object,
    save_trace,
    synth_trace,
    trace_from_detections,
)

J_PER_WH = 3600.0
DEFAULT_BUDGETS_WH = (10.0, 15.0, 20.0, 25.0, 30.0)


class _Usage(ValueError):
    """Validation failure that should exit with code 2."""


class _ConfigValue:
    """A flag default read from a --config file, checked once the command is known."""

    def __init__(self, path: str, key: str, value):
        self.path, self.key, self.value = path, key, value

    def parse(self, parser: argparse.ArgumentParser, action: argparse.Action):
        """The value as the flag's own argument strings: its type, choices and nargs apply."""
        several = action.nargs == "+" and isinstance(self.value, list) and self.value
        items = self.value if several else [self.value]
        if not all(type(v) in (str, int, float) for v in items):
            expected = ("a string, a number, or a non-empty list of them"
                        if action.nargs == "+" else "a string or a number")
            raise _Usage(f"{self.path}: {self.key}: expected {expected}, got {self.value!r}")
        try:
            values = [parser._get_value(action, v if type(v) is str else repr(v)) for v in items]
            for v in values:
                parser._check_value(action, v)
        except argparse.ArgumentError as exc:
            raise _Usage(f"{self.path}: {self.key}: {exc}") from None
        return values if action.nargs == "+" else values[0]


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise _Usage(f"{p}: not a regular file" if p.exists() else f"missing artifact: {p}")
    return p


def parse_horizons(flag: str, text: str):
    """Parse flag's '0-2,5' into [0, 1, 2, 5]; an index given twice is refused."""
    out = []
    seen = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        a, dash, b = part.partition("-")
        try:
            lo, hi = int(a), int(b if dash else a)
        except ValueError:
            raise _Usage(f"{flag}: bad index {part!r}: expected N or N-M") from None
        if hi < lo:
            raise _Usage(f"{flag}: bad range {part!r}")
        for h in range(lo, hi + 1):
            if h in seen:
                raise _Usage(f"{flag}: index {h} repeated in {text!r}")
            seen.add(h)
            out.append(h)
    if not out:
        raise _Usage(f"{flag}: no indices given")
    return out


def load_counter_set(path):
    """A counter set file is a JSON array of objects keyed by `CounterModel`'s fields.

    The counters come back in id order, so the file's order reaches no artefact.
    """
    p = _require_file(path)
    try:
        entries = read_json(p)
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"{p}: expected a nonempty JSON array of counter models")
        fields = dataclasses.fields(CounterModel)  # counter_id, then numbers; no default: required
        counters = []
        for i, d in enumerate(entries):
            where = f"{p}: counter entry {i}"
            if not isinstance(d, dict):
                raise ValueError(f"{where}: expected a JSON object")
            unknown = sorted(set(d) - {f.name for f in fields})
            if unknown:
                raise ValueError(f"{where}: unknown keys: {', '.join(map(repr, unknown))}")
            entry = JsonObject(d, where)
            cid = entry.string("counter_id")
            numbers = {f.name: entry.number(f.name, f.default) for f in fields[1:]}
            counters.append(entry.build(CounterModel, counter_id=cid, **numbers))
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    ids = [c.counter_id for c in counters]
    if len(set(ids)) != len(ids):
        raise _Usage(f"{p}: duplicate counter_id")
    return sorted(counters, key=lambda c: c.counter_id)


def _profile_path(profiles_dir, counter_id) -> Path:
    return Path(profiles_dir) / f"profile_{counter_id}.json"


def load_profiles(profiles_dir, counters):
    profiles = {}
    for c in counters:
        p = _require_file(_profile_path(profiles_dir, c.counter_id))
        profile = load_profile(p)
        if profile.counter_id != c.counter_id:
            raise _Usage(
                f"{p}: profile is for counter {profile.counter_id!r}, not {c.counter_id!r}"
            )
        profiles[c.counter_id] = profile
    return profiles


def _energy_model(args) -> EnergyModel:
    return EnergyModel(e_capture_per_frame=args.e_capture, e_wake_per_window=args.e_wake)


def _window_spec(args) -> WindowSpec:
    try:
        z_score(args.alpha)
    except ValueError as exc:
        raise _Usage(f"--alpha {args.alpha!r}: {exc}") from None
    return WindowSpec(
        tau_seconds=args.tau_seconds,
        horizon_windows=args.horizon_windows,
        alpha=args.alpha,
    )


def _budget_j(wh: float) -> float:
    if not math.isfinite(wh):
        raise _Usage(f"--budget-wh must be finite, got {wh!r}")
    return wh * J_PER_WH


def _budget_levels(levels) -> list:
    """Each --budget-wh level in J; two levels that would name one output file exit 2."""
    budgets_j = [_budget_j(wh) for wh in levels]
    named = {}
    for wh in levels:
        name = f"{wh:g}wh"
        if name in named:
            raise _Usage(
                f"--budget-wh {named[name]!r} and {wh!r} would write the same {name} files"
            )
        named[name] = wh
    return budgets_j


def _load_scene(args):
    trace, tau = load_trace(_require_file(args.trace))
    if tau != args.tau_seconds:
        raise _Usage(
            f"trace was segmented at tau={tau}s but the run asks for "
            f"{args.tau_seconds}s; re-synthesize or pass --tau-seconds {tau}"
        )
    return trace


def _check_horizons(flag: str, horizons, trace, spec) -> None:
    """Reject a horizon index past the trace's whole horizons before any work is done."""
    n = trace.n_horizons(spec)
    for h in horizons:
        if not 0 <= h < n:
            raise _Usage(f"{flag} {h} out of range: the trace holds {n} whole horizons, [0, {n})")


def _load_pipeline(args):
    """(spec, trace, counters, profiles, em) shared by the commands after profile."""
    spec = _window_spec(args)
    trace = _load_scene(args)
    counters = load_counter_set(args.counters)
    em = _energy_model(args)
    wf = spec.window_frames(trace.fps)
    hw = spec.horizon_windows
    for c in counters:
        energy = window_energy(wf, c, em)
        if not math.isfinite(energy):
            raise _Usage(
                f"{args.counters}: counter {c.counter_id!r}: one {wf}-frame window costs "
                f"{energy!r} J; window energies must be finite"
            )
        # planners add up a horizon of window energies
        if not math.isfinite(energy * hw):
            raise _Usage(
                f"{args.counters}: counter {c.counter_id!r}: a horizon of {hw} {wf}-frame "
                f"windows costs {energy * hw!r} J; horizon energies must be finite"
            )
    profiles = load_profiles(args.profiles_dir, counters)
    return spec, trace, counters, profiles, em


def _horizon_fronts(args):
    """(spec, fronts of --horizon as the oracle planner sees them under --seed)."""
    spec, trace, counters, profiles, em = _load_pipeline(args)
    _check_horizons("--horizon", [args.horizon], trace, spec)
    horizon = trace.horizon_slice(args.horizon, spec)
    seed = horizon_seed(args.seed, args.horizon)
    try:
        return spec, oracle_fronts(horizon, counters, em, profiles, spec, seed)
    except UnprofiledRegimeError as exc:
        raise UnprofiledRegimeError(f"horizon {args.horizon}, {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = _window_spec(args)
    try:
        pattern = SynthPattern(args.base_rate, args.amplitude, args.period_windows)
    except ValueError as exc:
        raise _Usage(
            f"--base-rate {args.base_rate} --amplitude {args.amplitude} "
            f"--period-windows {args.period_windows}: {exc}"
        ) from None
    trace = synth_trace(
        pattern, args.n_windows, spec, args.seed, scene_id=args.scene_id, fps=args.fps
    )
    save_trace(trace, args.out, spec)
    print(f"wrote {trace.n_frames} frames ({args.n_windows} windows) to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    if args.fps < 1:
        raise _Usage(f"--fps must be a positive integer, got {args.fps}")
    if not (math.isfinite(args.travel_seconds) and args.travel_seconds > 0):
        raise _Usage(
            f"--travel-seconds must be a positive finite number, got {args.travel_seconds!r}"
        )
    try:
        region = tuple(float(v) for v in args.roi.split(","))
        roi = RoiSpec(region=region, travel_seconds=args.travel_seconds)
    except ValueError as exc:
        raise _Usage(f"--roi {args.roi}: {exc}") from None
    log = load_detection_log(_require_file(args.log))
    spec = _window_spec(args)
    trace = trace_from_detections(
        log, roi, args.object_class, spec, fps=args.fps, scene_id=args.scene_id
    )
    save_trace(trace, args.out, spec)
    print(f"wrote {trace.n_frames} frames to {args.out}")
    return 0


def cmd_profile(args) -> int:
    spec = _window_spec(args)
    trace = _load_scene(args)
    counters = load_counter_set(args.counters)
    horizons = parse_horizons("--train-horizons", args.train_horizons)
    _check_horizons("--train-horizons", horizons, trace, spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = {h: counter_seeds(counters, args.seed, 60, h) for h in horizons}
    for counter in counters:
        pairs = []
        for h in horizons:
            truth_h = trace.horizon_slice(h, spec)
            observed_h = apply_counter(truth_h, counter, seeds[h][counter.counter_id])
            pairs.extend(window_mean_pairs(truth_h, observed_h, spec))
        profile = profile_errors(
            pairs, args.threshold, counter_id=counter.counter_id, min_pairs=args.min_pairs
        )
        for branch, usable in (("ratio", profile.ratio_usable), ("offset", profile.offset_usable)):
            if not usable:
                print(
                    f"warning: counter {counter.counter_id!r} has an empty {branch} "
                    f"branch; intervals in that regime will fail",
                    file=sys.stderr,
                )
        if profile.dropped_pairs:
            print(
                f"warning: counter {counter.counter_id!r} dropped {profile.dropped_pairs} "
                f"zero-observation pairs from the ratio branch",
                file=sys.stderr,
            )
        save_profile(profile, _profile_path(out_dir, counter.counter_id))
    print(f"wrote {len(counters)} profiles to {out_dir}")
    return 0


def cmd_fronts(args) -> int:
    n_windows = args.horizon_windows
    windows = parse_horizons("--windows", args.windows) if args.windows != "all" else range(n_windows)
    for w in windows:  # every index, before any file is written
        if not 0 <= w < n_windows:
            raise _Usage(f"window {w} out of range")
    _, fronts = _horizon_fronts(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for w in windows:
        save_front(fronts[w], out_dir / f"front_h{args.horizon}_w{w}.csv")
    print(f"wrote fronts for horizon {args.horizon} to {out_dir}")
    return 0


def cmd_plan(args) -> int:
    budgets_j = _budget_levels(args.budget_wh)
    _, fronts = _horizon_fronts(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for wh, budget_j in zip(args.budget_wh, budgets_j):
        plan = plan_horizon(fronts, budget_j)
        out = out_dir / f"plan_h{args.horizon}_{wh:g}wh.json"
        save_plan(plan, out)
        print(f"budget {wh:g} Wh: spent {plan.spent_j:.1f} J of {plan.budget_j:.1f} J -> {out}")
    return 0


def cmd_train(args) -> int:
    if args.episodes < 1:
        raise _Usage(f"--episodes must be a positive integer, got {args.episodes}")
    budgets_j = _budget_levels(args.budget_wh)
    spec, trace, counters, profiles, em = _load_pipeline(args)
    horizons = parse_horizons("--train-horizons", args.train_horizons)
    _check_horizons("--train-horizons", horizons, trace, spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = TrainConfig(episodes=args.episodes)
    wf = spec.window_frames(trace.fps)
    for li, (wh, budget_j) in enumerate(zip(args.budget_wh, budgets_j)):
        data = prepare_training_data(
            trace, horizons, budget_j, counters, em, profiles, spec, derive_seed(args.seed, 70, li)
        )
        pair = AgentPair(
            budget_level_j=budget_j,
            counter_ids=[c.counter_id for c in counters],
            window_frames=wf,
            norm_mean_scale=data.mean_scale,
            norm_std_scale=data.std_scale,
            seed=derive_seed(args.seed, 71, li),
        )
        rows = a2c_train(data, pair, cfg, derive_seed(args.seed, 72, li))
        save_agent_pair(pair, out_dir / f"agents_{wh:g}wh.json")
        save_training_log(rows, out_dir / f"training_log_{wh:g}wh.csv")
        print(
            f"budget {wh:g} Wh: trained {cfg.episodes} episodes, "
            f"final rewards reg={rows[-1][1]:.4f} cls={rows[-1][2]:.4f}"
        )
    return 0


def cmd_simulate(args) -> int:
    budget_j = _budget_j(args.budget_wh)
    spec, trace, counters, profiles, em = _load_pipeline(args)
    horizons = parse_horizons("--horizons", args.horizons)
    _check_horizons("--horizons", horizons, trace, spec)

    if args.planner == "oracle":
        planner = OraclePlannerSpec()
    elif args.planner == "rl":
        if not args.agents:
            raise _Usage("--agents is required for --planner rl")
        pair = load_agent_pair(_require_file(args.agents))
        if abs(pair.budget_level_j - budget_j) > 1e-6:
            raise _Usage(
                f"budget {args.budget_wh:g} Wh does not match the agent level "
                f"{pair.budget_level_j / J_PER_WH:g} Wh"
            )
        planner = RlPlannerSpec(pair=pair)
        try:
            planner.check(counters, spec.window_frames(trace.fps))
        except ValueError as exc:
            raise _Usage(f"{args.agents}: {exc}") from None
    elif args.planner == "golden":
        if not args.golden_counter:
            raise _Usage("--golden-counter is required for --planner golden")
        known = [c.counter_id for c in counters]
        if args.golden_counter not in known:
            raise _Usage(
                f"--golden-counter {args.golden_counter!r} is not in the counter set "
                f"(known: {', '.join(known)})"
            )
        planner = FixedCounterPlannerSpec(counter_id=args.golden_counter, name="golden")
    elif args.planner == "uni":
        if args.validation_horizon is None:
            raise _Usage("--validation-horizon is required for --planner uni")
        _check_horizons("--validation-horizon", [args.validation_horizon], trace, spec)
        uni_id = select_uni_counter(
            trace, args.validation_horizon, counters, em, profiles, budget_j, spec, args.seed
        )
        planner = FixedCounterPlannerSpec(counter_id=uni_id, name="uni")
    else:  # pragma: no cover - argparse restricts choices
        raise _Usage(f"unknown planner {args.planner!r}")

    results, ledgers = simulate_scene(
        planner, trace, horizons, counters, em, profiles, budget_j, spec, args.seed
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_results(results, horizons, out)
    report = score(results, ledgers)
    manifest = {
        "version": __version__,
        "scene": str(args.trace),
        "scene_id": trace.scene_id,
        "planner": args.planner,
        "counter_ids": [c.counter_id for c in counters],
        "budget_wh": args.budget_wh,
        "budget_j": budget_j,
        "horizons": horizons,
        "alpha": spec.alpha,
        "tau_seconds": spec.tau_seconds,
        "horizon_windows": spec.horizon_windows,
        "seed": args.seed,
        "e_capture": args.e_capture,
        "e_wake": args.e_wake,
        "results": out.name,
        "unused_j": [l.remaining_j for l in ledgers],
    }
    save_manifest(manifest, out.with_suffix(".manifest.json"))
    print(
        f"{args.planner}: coverage={report.coverage_probability:.4f} "
        f"width={report.mean_ci_width:.4f} "
        f"error={report.mean_error:.4f} "
        f"utilization={float(np.mean(report.energy_utilization)):.4f}"
    )
    return 0


def cmd_report(args) -> int:
    runs_dir = Path(args.runs_dir)
    if not runs_dir.is_dir():
        raise _Usage(f"missing artifact: {runs_dir}")
    manifests = sorted(runs_dir.glob("*.manifest.json"))
    if not manifests:
        raise _Usage(f"no *.manifest.json files under {runs_dir}")
    rows = []
    for mpath in manifests:
        manifest = read_json_object(mpath)
        name, planner = manifest.string("results"), manifest.string("planner")
        alpha, budget_j = manifest.number("alpha"), manifest.number("budget_j")
        if not name:
            raise manifest.error("results", "a file name", name)
        # a planner fills one field of a comparison row; the splitlines test turns away ''
        if "," in planner or planner.splitlines() != [planner]:
            raise manifest.error("planner", "a non-empty string with no ',' or line break", planner)
        if not 0 < alpha < 1:
            raise manifest.error("alpha", "a number in (0, 1)", alpha)
        if budget_j <= 0:
            raise manifest.error("budget_j", "a positive number", budget_j)
        results, _ = load_results(_require_file(runs_dir / name), alpha)
        rows.append(comparison_row(budget_j, planner, results))
    rows.sort(key=lambda r: (r["budget_j"], r["planner"]))
    save_comparison(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-seconds", type=int, default=1800, help="aggregation window length")
    p.add_argument("--horizon-windows", type=int, default=48, help="windows per planning horizon")
    p.add_argument("--alpha", type=float, default=0.95, help="confidence level")


def _add_energy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--e-capture", type=float, default=0.05, help="capture J per frame")
    p.add_argument("--e-wake", type=float, default=0.0, help="wake J per window")


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True, help="scene trace CSV (with .meta.json sidecar)")
    p.add_argument("--counters", required=True, help="counter set JSON file")
    p.add_argument("--seed", type=int, required=True)
    _add_window_args(p)
    _add_energy_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wattcount",
        description="Energy-budgeted object counting: simulate, plan, train, report.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of flag defaults (dest names as keys); command line wins",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a diurnal Poisson scene")
    p.add_argument("--out", required=True)
    p.add_argument("--scene-id", default="synthetic")
    p.add_argument("--base-rate", type=float, default=2.0)
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--period-windows", type=int, default=48)
    p.add_argument("--n-windows", type=int, required=True)
    p.add_argument("--fps", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    _add_window_args(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="build a trace from a detection log via ROI counting")
    p.add_argument("--log", required=True, help="detection JSON-lines file")
    p.add_argument("--out", required=True)
    p.add_argument("--roi", required=True, help="x_min,y_min,x_max,y_max")
    p.add_argument("--travel-seconds", type=float, required=True)
    p.add_argument("--object-class", required=True)
    p.add_argument("--scene-id", default="ingested")
    p.add_argument("--fps", type=int, default=1)
    _add_window_args(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("profile", help="profile counter errors on training horizons")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-horizons", default="0-2", help="horizon list, e.g. 0-2")
    p.add_argument("--threshold", type=float, default=1.0, help="ratio/offset regime split")
    p.add_argument("--min-pairs", type=int, default=30, help="minimum profiling pairs")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("fronts", help="dump per-window energy/CI fronts as CSV")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--profiles-dir", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--windows", default="all", help="window list, e.g. 0-5, or 'all'")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_fronts)

    p = sub.add_parser("plan", help="offline allocation for one horizon per budget")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--profiles-dir", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--budget-wh", type=float, nargs="+", default=list(DEFAULT_BUDGETS_WH))
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("train", help="train agent pairs per budget level")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--profiles-dir", required=True)
    p.add_argument("--train-horizons", default="0-2")
    p.add_argument("--budget-wh", type=float, nargs="+", default=list(DEFAULT_BUDGETS_WH))
    p.add_argument("--episodes", type=int, default=2000)
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run one planner over horizons")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--profiles-dir", required=True)
    p.add_argument("--planner", choices=("oracle", "rl", "golden", "uni"), required=True)
    p.add_argument("--budget-wh", type=float, required=True)
    p.add_argument("--horizons", required=True, help="horizon list, e.g. 3-12")
    p.add_argument("--agents", default=None, help="agent checkpoint (rl planner)")
    p.add_argument("--golden-counter", default=None, help="counter id (golden planner)")
    p.add_argument("--validation-horizon", type=int, default=None, help="uni planner pick")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="aggregate simulate runs into a comparison table")
    p.add_argument("--runs-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# normal draws a command may take through the ndtri port before it imports
# scipy.special; main's docstring has the derivation
PORT_DRAWS = 500_000


def main(argv=None) -> int:
    """Run one wattcount command; returns its exit code.

    Every command is its own process, so main also sets that process's port
    budget (:func:`wattcount._rng.set_port_budget`) to :data:`PORT_DRAWS`.
    Measured on a 2-vCPU x86-64 host, the port costs 0.10-0.12 us per normal
    draw plus 30-50 us per call, and scipy 13-17 ns per draw after an import
    of 0.26-0.33 s. So 500k draws cost 0.05-0.2 s through the port (the
    upper end in calls of about 100 draws), less than the import. A command that draws more pays the port for its first 500k and
    then the import, as in ski rental: at most about 1.6x the cheaper of
    the two. Of the README walkthrough's stages only train draws that many.
    Library code keeps a budget of 0: a long-running process that draws at
    all should pay the import once, not inside the work it times.
    """
    set_port_budget(PORT_DRAWS)
    argv = list(sys.argv[1:] if argv is None else argv)
    # config files only set defaults; explicit flags take precedence, and a
    # default is read by its flag's rules only for the command that runs
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    parser = build_parser()
    try:
        if known.config:
            overrides = read_json_object(_require_file(known.config)).data
            subparsers = [sp for a in parser._subparsers._group_actions for sp in a.choices.values()]
            dests = {a.dest for sp in subparsers for a in sp._actions if a.dest != "help"}
            unknown = sorted(set(overrides) - dests)
            if unknown:
                raise _Usage(f"{known.config}: unknown config keys: {', '.join(unknown)}")
            for sp in subparsers:
                sp.set_defaults(**{
                    a.dest: _ConfigValue(known.config, a.dest, overrides[a.dest])
                    for a in sp._actions if a.dest in overrides
                })
        args = parser.parse_args(argv)
        command = parser._subparsers._group_actions[0].choices[args.command]
        for action in command._actions:
            value = getattr(args, action.dest, None)
            if isinstance(value, _ConfigValue):
                setattr(args, action.dest, value.parse(command, action))
        return args.func(args)
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

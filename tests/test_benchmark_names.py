"""The benchmark's tracer still finds every package name it looks up.

perfbench/tracing.py names the package functions it wraps in strings
(``approx_ci``, ``sample_stats``, ``build_front``, ``action_outcome``, ...),
and perfbench/workloads.py binds package functions of its own. A name
deleted from the package would otherwise fail only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import wattcount

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py as a module, imported by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def bindings(modules):
    """Every (module, attribute) -> value of the given modules, plus the traced methods."""
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in (wattcount.mlp.Mlp, wattcount.mlp.Adam):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_installs_on_every_traced_name_and_restores_the_originals(monkeypatch):
    tracing = load_perfbench("tracing", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch)
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wattcount" and m]
    before = bindings([*modules, workloads])
    tracer = tracing.Tracer()
    try:
        tracer.install(callers=(workloads,))
        for _, modname, attr, _ in tracing.TRACED:
            owner = sys.modules[modname]
            *cls, name = attr.split(".")
            held = vars(getattr(owner, cls[0]))[name] if cls else getattr(owner, name)
            original = before[(cls[0] if cls else modname, name)]
            assert held is not original, f"{modname}.{attr} was not wrapped"
        assert workloads.plan_horizon is not before[(workloads.__name__, "plan_horizon")]
    finally:
        tracer.restore()
    after = bindings([*modules, workloads])
    changed = sorted(f"{m}.{k}" for m, k in before if after.get((m, k)) is not before[(m, k)])
    assert changed == []

"""The first three demos run end to end and print what they did."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wattcount

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    src = str(Path(wattcount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("name, lines", [
    ("01_profile_and_interval.py", [
        "profiled 144 windows against ground truth",
        "  ratio regime: mean true/observed 1.1578, stdev 0.0193",
        "window 154: sampled 60 of 600 frames",
        "  corrected mean: 5.654 +- 0.662  (ratio branch)",
        "  monte carlo cross-check: 5.654 +- 0.664",
        "  window total: 3392 +- 397 objects, true total 3540 -> covered",
    ]),
    ("02_fronts_and_plan.py", [
        "window 0 front: 85 undominated of 3979 total points across the day",
        "   cheap n=30   energy    7.50 J  width 0.18577",
        "  ... 79 more",
        "  steepest marginal gain at the floor: 1.02e-02 width/J",
        "plan for 700 J: spent 700.0 J (100.0% of budget)",
        "  counter picks: {'cheap': 48}",
        "  frames/window: min 50, median 60, max 70",
        "  mean relative width: 0.14302",
    ]),
    ("03_train_agents.py", [
        "episode  reward(frames)  reward(counter)  entropy",
        "      0         -0.4191           0.5583   0.5509",
        "    599         -0.2583           0.9979   0.1299",
    ]),
])
def test_demo_runs(name, lines):
    out = run_demo(name)
    for line in lines:
        assert line in out

"""Show that the benchmark's output checks catch corrupted artefacts.

usage: python3 perfbench/selftest.py

Runs the walkthrough once inside this process at the README seed, confirms
every check passes on its artefacts, then corrupts copies of them one way at
a time (an overspent ledger, a missing results row, a non-finite interval,
a report row that no longer matches the README, a second pass with different
bytes, an overspent in-process ledger) and confirms each corruption fails
at least one check. Exits 1 if a corruption goes unnoticed.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wattcount.agents import EnergyLedger  # noqa: E402
from workloads import (  # noqa: E402
    README_SEED,
    PassRecord,
    Tally,
    Walkthrough,
    check_identical,
    check_simulation,
    check_walkthrough,
    fresh_dir,
)


def edit_csv_row(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def drop_last_row(path: Path) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def main() -> int:
    outdir = fresh_dir(HERE / "out" / "selftest")
    tally = Tally()
    rec = Walkthrough().run_pass({"seed": README_SEED}, outdir / "pass", tally, "inprocess")
    art = outdir / "pass" / "art"
    if tally.failed:
        print("clean artefacts already fail:", tally.failures)
        return 1
    print(f"clean walkthrough artefacts: {tally.attempted} operations and checks, 0 failed")

    corruptions = {
        "overspent ledger": lambda d: edit_csv_row(d / "runs" / "oracle.csv", 1, "energy_j", "5000.0"),
        "missing results row": lambda d: drop_last_row(d / "runs" / "uni.csv"),
        "non-finite interval": lambda d: edit_csv_row(d / "runs" / "golden.csv", 3, "half_width", "nan"),
        "report differs from README": lambda d: edit_csv_row(d / "report.csv", 2, "coverage", "0.5"),
    }
    missed = []
    for label, corrupt in corruptions.items():
        copy = outdir / label.replace(" ", "_")
        shutil.copytree(art, copy)
        corrupt(copy)
        t = Tally()
        check_walkthrough(copy, README_SEED, t)
        print(f"{label}: {t.failed} failed -> {t.failures}")
        if not t.failed:
            missed.append(label)

    t = Tally()
    other = PassRecord(wall_s=0.0, digests={**rec.digests, "report.csv": "0" * 64})
    check_identical(t, [rec, other])
    print(f"second pass with different bytes: {t.failed} failed -> {t.failures}")
    if not t.failed:
        missed.append("byte identity")

    t = Tally()
    ledger = EnergyLedger(budget_j=100.0, spent_j=100.5)
    check_simulation(t, "in-process", [[]], [ledger], 100.0, 0)
    print(f"in-process overspent ledger: {t.failed} failed -> {t.failures}")
    if not t.failed:
        missed.append("in-process ledger")

    if missed:
        print("corruptions not caught:", missed)
        return 1
    print("every corruption was caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())

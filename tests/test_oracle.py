"""Offline allocator: greedy correctness against exhaustive search."""

import heapq
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattcount import (
    CountAction,
    EnergyCIFront,
    FrontPoint,
    HorizonPlan,
    front_gradient,
    plan_horizon,
    plan_quality,
    save_plan,
)


def make_front(window_index, base_energy, step_energy, widths):
    """A front whose advances all cost step_energy; widths strictly decrease."""
    points = []
    for i, w in enumerate(widths):
        points.append(
            FrontPoint(
                CountAction("c", 30 + 10 * i),
                base_energy + i * step_energy,
                w,
            )
        )
    return EnergyCIFront(window_index=window_index, points=tuple(points))


def grid_front(window_index, energies, widths, counter_ids):
    """A front through the point constructor, point i taking 30 + 10 * i frames."""
    return EnergyCIFront(window_index, [
        FrontPoint(CountAction(c, 30 + 10 * i), e, w)
        for i, (e, w, c) in enumerate(zip(energies, widths, counter_ids))
    ])


def random_concave_instance(rng, equal_steps=True):
    """Random per-window fronts with diminishing gradients.

    Widths live on a dyadic lattice (multiples of 1/1024) so sums across
    windows are exact in binary floating point and the greedy-vs-exhaustive
    comparison can demand equality, not tolerance. Advances share one step
    energy per instance: the regime where steepest-gradient greedy provably
    matches exhaustive search.
    """
    n_windows = int(rng.integers(1, 5))
    step = float(rng.integers(1, 9)) if equal_steps else None
    fronts = []
    for w in range(n_windows):
        n_points = int(rng.integers(1, 7))
        base = float(rng.integers(1, 20))
        start = int(rng.integers(512, 1024))
        # concavity: non-increasing dyadic gains that never overdraw the width
        if n_points > 1:
            g_max = max(1, (start - 1) // (n_points - 1))
            gains = np.sort(rng.integers(1, g_max + 1, size=n_points - 1))[::-1]
        else:
            gains = []
        widths = [start / 1024.0]
        for g in gains:
            widths.append(widths[-1] - float(g) / 1024.0)
        fronts.append(make_front(w, base, step, widths))
    min_total = sum(f.points[0].energy_j for f in fronts)
    extra_steps = int(rng.integers(0, 3 * n_windows))
    budget = min_total + extra_steps * step + float(rng.uniform(0, step))
    return fronts, budget


def exhaustive_best_width(fronts, budget_j):
    """Brute-force minimum mean width over all feasible operating points."""
    best = None
    for combo in itertools.product(*(range(len(f.points)) for f in fronts)):
        energy = sum(f.points[i].energy_j for f, i in zip(fronts, combo))
        if energy > budget_j + 1e-9:
            continue
        width = sum(f.points[i].ci_width for f, i in zip(fronts, combo)) / len(fronts)
        if best is None or width < best:
            best = width
    return best


class TestPlanHorizon:
    def test_budget_exactly_minimum(self):
        fronts = [make_front(0, 10.0, 5.0, [0.5, 0.25]), make_front(1, 20.0, 5.0, [0.4, 0.2])]
        plan = plan_horizon(fronts, budget_j=30.0)
        assert [a.n_frames for a in plan.actions] == [30, 30]
        assert plan.spent_j == 30.0

    def test_budget_below_minimum(self):
        fronts = [make_front(0, 10.0, 5.0, [0.5])]
        with pytest.raises(ValueError, match="budget below bare minimum"):
            plan_horizon(fronts, budget_j=9.0)

    def test_refusal_shows_a_shortfall_of_one_ulp(self):
        fronts = [make_front(0, 10.0, 5.0, [0.5]), make_front(1, 20.0, 5.0, [0.4])]
        with pytest.raises(ValueError) as exc:
            plan_horizon(fronts, budget_j=math.nextafter(30.0, 0))
        assert str(exc.value) == (
            "budget below bare minimum: 29.999999999999996 J < 30.0 J (short 3.55e-15 J)"
        )

    def test_surplus_goes_to_the_only_improvable_window(self):
        flat = make_front(0, 10.0, 5.0, [0.5])  # single point, exhausted at minimum
        improvable = make_front(1, 10.0, 5.0, [0.5, 0.4, 0.3, 0.2])
        plan = plan_horizon([flat, improvable], budget_j=35.0)
        assert plan.actions[0].n_frames == 30
        assert plan.actions[1].n_frames == 60  # all three advances funded
        assert plan.spent_j == 35.0

    def test_greedy_prefers_steepest_gradient(self):
        # window 1's first advance buys 0.2/5 J; window 0's only 0.05/5 J
        shallow = make_front(0, 10.0, 5.0, [0.5, 0.45])
        steep = make_front(1, 10.0, 5.0, [0.5, 0.3])
        plan = plan_horizon([shallow, steep], budget_j=25.0)
        assert plan.actions[0].n_frames == 30
        assert plan.actions[1].n_frames == 40

    def test_tie_breaks_to_lowest_window_index(self):
        a = make_front(0, 10.0, 5.0, [0.5, 0.4])
        b = make_front(1, 10.0, 5.0, [0.5, 0.4])
        plan = plan_horizon([a, b], budget_j=25.0)
        assert plan.actions[0].n_frames == 40
        assert plan.actions[1].n_frames == 30

    def test_never_exceeds_budget_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            fronts, budget = random_concave_instance(rng)
            plan = plan_horizon(fronts, budget)
            assert plan.spent_j <= budget
            assert all(a.n_frames >= 30 for a in plan.actions)

    def test_matches_exhaustive_on_concave_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(120):
            fronts, budget = random_concave_instance(rng)
            plan = plan_horizon(fronts, budget)
            assert plan_quality(plan, fronts) == exhaustive_best_width(fronts, budget)

    def test_quality_non_increasing_in_budget(self):
        rng = np.random.default_rng(23)
        fronts, budget = random_concave_instance(rng)
        qualities = [
            plan_quality(plan_horizon(fronts, budget + extra), fronts)
            for extra in (0.0, 5.0, 10.0, 50.0, 200.0)
        ]
        assert all(a >= b for a, b in zip(qualities, qualities[1:]))

    def test_allocation_heterogeneity(self):
        # a much steeper front should attract more energy than a flat one
        quiet = make_front(0, 10.0, 5.0, [0.1, 0.098, 0.096])
        busy = make_front(1, 10.0, 5.0, [0.9, 0.5, 0.2])
        plan = plan_horizon([quiet, busy], budget_j=30.0)
        assert plan.per_window_energy[1] > plan.per_window_energy[0]

    def test_gradient_view_consistent_with_plan(self):
        fronts = [make_front(0, 10.0, 5.0, [0.5, 0.3, 0.2])]
        plan = plan_horizon(fronts, budget_j=20.0)
        # at the final operating point the remaining gradient was unaffordable
        spent = plan.per_window_energy[0]
        assert front_gradient(fronts[0], spent) >= 0.0
        assert plan.spent_j == 20.0


def heap_plan_horizon(fronts, budget_j):
    """The allocator as a max-heap of window heads, one advance per pop.

    The package sorts every step once instead; the two must agree exactly,
    down to giving back the latest advances when rounding overshoots.
    """
    minimum = sum(f.points[0].energy_j for f in fronts)
    level = [0] * len(fronts)
    taken = []
    remaining = budget_j - minimum

    def push(heap, w):
        f = fronts[w]
        i = level[w]
        if i + 1 < len(f.points):
            inc = f.points[i + 1].energy_j - f.points[i].energy_j
            gain = f.points[i].ci_width - f.points[i + 1].ci_width
            heapq.heappush(heap, (-(gain / inc), w, i, inc))

    heap = []
    for w in range(len(fronts)):
        push(heap, w)
    while heap:
        _, w, i, inc = heapq.heappop(heap)
        if inc > remaining + 1e-12:
            continue
        remaining -= inc
        level[w] = i + 1
        taken.append(w)
        push(heap, w)
    while sum(fronts[w].points[level[w]].energy_j for w in range(len(fronts))) > budget_j:
        level[taken.pop()] -= 1
    energies = tuple(fronts[w].points[level[w]].energy_j for w in range(len(fronts)))
    return HorizonPlan(
        budget_j=budget_j,
        actions=tuple(fronts[w].points[level[w]].action for w in range(len(fronts))),
        per_window_energy=energies,
        spent_j=sum(energies),
    )


@st.composite
def fronts_and_budget(draw):
    """Fronts of any shape (non-concave too) and a budget at or above their minimum.

    Integer step costs and width drops on a coarse quantum make tied
    gradients common, within a window and across windows; the float mode
    gives arbitrary, rounded step costs.
    """
    integer_steps = draw(st.booleans())
    quantum = draw(st.sampled_from([0.125, 1 / 64, 1 / 1024]))
    fronts = []
    for w in range(draw(st.integers(1, 6))):
        n_steps = draw(st.integers(0, 7))
        if integer_steps:
            incs = draw(st.lists(st.integers(1, 4), min_size=n_steps, max_size=n_steps))
            gains = draw(st.lists(st.integers(1, 4), min_size=n_steps, max_size=n_steps))
            gains = [g * quantum for g in gains]
        else:
            incs = draw(st.lists(st.floats(0.01, 10.0), min_size=n_steps, max_size=n_steps))
            gains = draw(st.lists(st.floats(1e-3, 1.0), min_size=n_steps, max_size=n_steps))
        energy = float(draw(st.integers(1, 20)))
        # float drops may round the last width below zero without a margin
        width = sum(gains) + draw(st.integers(0 if integer_steps else 1, 4)) * quantum
        energies, widths = [energy], [width]
        for inc, gain in zip(incs, gains):
            energies.append(energies[-1] + inc)
            widths.append(widths[-1] - gain)
        counters = draw(st.lists(st.sampled_from(["a", "b"]), min_size=n_steps + 1,
                                 max_size=n_steps + 1))
        fronts.append(grid_front(w, energies, widths, counters))
    minimum = sum(float(f.energies[0]) for f in fronts)
    span = sum(float(f.energies[-1] - f.energies[0]) for f in fronts)
    extra = draw(st.one_of(st.floats(0.0, 1.2 * span + 1.0), st.integers(0, int(span) + 1)))
    return fronts, minimum + extra


TIED_GRADIENTS = (0.5, 0.25, 0.125)


@st.composite
def tied_key_fronts_and_budget(draw):
    """Fronts whose step gradients all come from three dyadic values.

    Dyadic step costs and width drops make every gradient exact, so the
    running-minimum keys of different windows, and of steps within a
    non-concave window, are exactly equal and the order among them rests on
    the tie break alone.
    """
    fronts = []
    for w in range(draw(st.integers(2, 6))):
        n_steps = draw(st.integers(1, 6))
        incs = draw(st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=n_steps,
                             max_size=n_steps))
        grads = draw(st.lists(st.sampled_from(TIED_GRADIENTS), min_size=n_steps,
                              max_size=n_steps))
        energies = [float(draw(st.integers(1, 8)))]
        widths = [16.0]  # six steps drop at most 6 * 4.0 * 0.5 = 12
        for inc, g in zip(incs, grads):
            energies.append(energies[-1] + inc)
            widths.append(widths[-1] - g * inc)
        fronts.append(grid_front(w, energies, widths, ["c"] * (n_steps + 1)))
    minimum = sum(float(f.energies[0]) for f in fronts)
    span = sum(float(f.energies[-1] - f.energies[0]) for f in fronts)
    return fronts, minimum + draw(st.integers(0, int(span) + 1)) + draw(st.sampled_from([0.0, 0.5]))


def energy_front(window_index, energies):
    """A concave front at the given energies: widths 1, 1/2, 1/3, ..."""
    n = len(energies)
    return grid_front(window_index, energies, [1.0 / (i + 1) for i in range(n)], ["c"] * n)


# the running remainder admits window 0's first step, which the window-order
# sum then overshoots by one ulp
OVERSHOOT_CASE = (
    [energy_front(w, e) for w, e in enumerate([
        (11.0, 11.333333333333334, 12.333333333333334, 13.333333333333334),
        (2.0, 3.0, 4.0, 5.0), (1.0,), (1.0,), (1.0,),
    ])],
    16.333333333333332,
)


# the first ordered step already does not fit, so the array prefix is empty
AT_MINIMUM_CASE = ([energy_front(0, (1.0, 2.0, 3.0)), energy_front(1, (2.0, 4.0))], 3.0)
# every step fits, so the prefix takes them all and no scan is left
ABOVE_SPAN_CASE = ([energy_front(0, (1.0, 2.0, 3.0)), energy_front(1, (2.0, 4.0))], 9.0)
# window 0's first step does not fit and window 3's last step is dropped in
# the scan; window 0, the window that misfit first, owns the last seven steps
# of the order, which the scan walks without taking any
EARLY_DROPS_CASE = (
    [energy_front(0, (1.0, 5.0, *(6.0 + k for k in range(9)))),
     energy_front(1, (1.0, 2.0, 4.0)), energy_front(2, (1.0, 1.5)),
     energy_front(3, (1.0, 2.0, 5.0))],
    4.0 + 0.5 + 1.0 + 1.0 + 2.0,
)


@st.composite
def per_frame_fronts_and_budget(draw):
    """Fronts priced like real ones, frames times a float per-frame energy,
    at a budget that is the minimum plus whole steps or an exact plan's cost."""
    fronts = []
    for w in range(draw(st.integers(1, 8))):
        per_frame = draw(st.floats(0.01, 1.0)) + draw(st.floats(0.01, 3.0))  # capture + count
        frames = range(30, 40 + 10 * draw(st.integers(0, 6)), 10)
        fronts.append(energy_front(w, [n * per_frame for n in frames]))
    if draw(st.booleans()):
        levels = [draw(st.integers(0, f.energies.size - 1)) for f in fronts]
        return fronts, sum(float(f.energies[i]) for f, i in zip(fronts, levels))
    minimum = sum(float(f.energies[0]) for f in fronts)
    step = float(fronts[draw(st.integers(0, len(fronts) - 1))].energies[0]) / 3
    return fronts, minimum + draw(st.integers(0, 40)) * step


class TestSortedAllocator:
    @settings(max_examples=400, deadline=None)
    @given(case=fronts_and_budget())
    @example(case=OVERSHOOT_CASE)
    @example(case=AT_MINIMUM_CASE)
    @example(case=ABOVE_SPAN_CASE)
    @example(case=EARLY_DROPS_CASE)
    def test_equals_heap_allocator(self, case):
        fronts, budget = case
        got = plan_horizon(fronts, budget)
        want = heap_plan_horizon(fronts, budget)
        assert got.actions == want.actions
        assert got.per_window_energy == want.per_window_energy
        assert got.spent_j == want.spent_j

    @settings(max_examples=300, deadline=None)
    @given(case=tied_key_fronts_and_budget())
    def test_equals_heap_allocator_on_keys_tied_across_windows(self, case):
        fronts, budget = case
        keys = [np.minimum.accumulate(
            (f.widths[:-1] - f.widths[1:]) / np.diff(f.energies)).tolist() for f in fronts]
        # the gradients are exact, so keys repeat across windows
        assert all(k in TIED_GRADIENTS for ks in keys for k in ks)
        assert plan_horizon(fronts, budget) == heap_plan_horizon(fronts, budget)

    @settings(max_examples=200, deadline=None)
    @given(case=fronts_and_budget())
    def test_plan_within_budget_on_its_fronts(self, case):
        fronts, budget = case
        plan = plan_horizon(fronts, budget)
        assert plan.spent_j <= budget
        for action, energy, front in zip(plan.actions, plan.per_window_energy, fronts):
            assert {p.action: p.energy_j for p in front.points}[action] == energy

    def test_overshoot_by_rounding_is_given_back(self):
        fronts, budget = OVERSHOOT_CASE
        plan = plan_horizon(fronts, budget)
        assert plan.spent_j == 16.0 <= budget

    @settings(max_examples=300, deadline=None)
    @given(case=per_frame_fronts_and_budget())
    def test_float_per_frame_energies_stay_within_budget(self, case):
        fronts, budget = case
        plan = plan_horizon(fronts, budget)
        assert sum(plan.per_window_energy) == plan.spent_j <= budget
        assert plan == heap_plan_horizon(fronts, budget)

    def test_inexact_per_frame_energy_fills_every_budget(self):
        # 0.1 J capture + 0.2 J counting is 0.30000000000000004 J per frame
        fronts = [energy_front(w, [n * (0.1 + 0.2) for n in range(30, 130, 10)])
                  for w in range(48)]
        step = 10 * (0.1 + 0.2)
        for wh in (0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27, 0.28, 0.29, 0.30):
            budget = wh * 3600.0
            plan = plan_horizon(fronts, budget)
            assert budget - 2 * step < plan.spent_j <= budget

    def test_exact_fits_are_taken(self):
        # identical fronts advance round robin, so k steps land on known levels
        fronts = [energy_front(w, [n * (0.1 + 0.2) for n in range(30, 80, 10)])
                  for w in range(5)]
        for k in range(21):
            levels = [k // 5 + (w < k % 5) for w in range(5)]
            budget = sum(float(f.energies[i]) for f, i in zip(fronts, levels))
            plan = plan_horizon(fronts, budget)
            assert [a.n_frames for a in plan.actions] == [30 + 10 * i for i in levels]
            assert plan.spent_j == budget

    def test_non_concave_front_waits_for_its_shallow_step(self):
        # window 0's second step is steep but only reachable through a
        # shallow first one, so window 1's middling step goes first
        a = make_front(0, 10.0, 5.0, [0.9, 0.85, 0.1])
        b = make_front(1, 10.0, 5.0, [0.9, 0.6])
        plan = plan_horizon([a, b], budget_j=25.0)
        assert [x.n_frames for x in plan.actions] == [30, 40]
        plan = plan_horizon([a, b], budget_j=35.0)
        assert [x.n_frames for x in plan.actions] == [50, 40]

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, budget):
        fronts = [make_front(0, 3.0, 1.0, [0.5, 0.4]), make_front(1, 3.0, 1.0, [0.5, 0.4])]
        with pytest.raises(ValueError, match=f"budget_j must be finite, got {budget!r}"):
            plan_horizon(fronts, budget)
        with pytest.raises(ValueError, match=f"budget_j must be finite, got {budget!r}"):
            HorizonPlan(budget_j=budget, actions=(CountAction("c", 40),) * 2,
                        per_window_energy=(4.0, 4.0), spent_j=8.0)


class TestPlanQuality:
    def test_mean_of_widths(self):
        fronts = [make_front(0, 10.0, 5.0, [0.2]), make_front(1, 12.0, 5.0, [0.4])]
        plan = plan_horizon(fronts, budget_j=22.0)
        assert plan_quality(plan, fronts) == pytest.approx(0.3)

    def test_action_off_front_rejected(self):
        fronts = [make_front(0, 10.0, 5.0, [0.5, 0.4])]
        plan = HorizonPlan(
            budget_j=100.0,
            actions=(CountAction("c", 90),),
            per_window_energy=(15.0,),
            spent_j=15.0,
        )
        with pytest.raises(ValueError, match="not on front"):
            plan_quality(plan, fronts)


class TestPlanType:
    def test_overspend_rejected(self):
        with pytest.raises(ValueError, match="exceeds budget"):
            HorizonPlan(
                budget_j=10.0,
                actions=(CountAction("c", 30),),
                per_window_energy=(11.0,),
                spent_j=11.0,
            )

    def test_energy_bookkeeping_must_balance(self):
        with pytest.raises(ValueError, match="sum of per-window"):
            HorizonPlan(
                budget_j=10.0,
                actions=(CountAction("c", 30),),
                per_window_energy=(5.0,),
                spent_j=6.0,
            )

    def test_round_trip(self, tmp_path):
        fronts = [make_front(0, 10.0, 5.0, [0.5, 0.4]), make_front(1, 8.0, 5.0, [0.3])]
        plan = plan_horizon(fronts, budget_j=25.0)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        doc = json.loads(path.read_text())
        actions = tuple(CountAction(w["counter_id"], w["n_frames"]) for w in doc["windows"])
        energies = tuple(w["energy_j"] for w in doc["windows"])
        assert HorizonPlan(doc["budget_j"], actions, energies, doc["spent_j"]) == plan

    def test_plan_json_shape(self, tmp_path):
        fronts = [make_front(0, 10.0, 5.0, [0.5])]
        plan = plan_horizon(fronts, budget_j=12.0)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"budget_j", "windows", "spent_j"}
        assert doc["windows"][0] == {
            "index": 0, "counter_id": "c", "n_frames": 30, "energy_j": 10.0,
        }

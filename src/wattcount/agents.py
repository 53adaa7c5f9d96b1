"""Online planner: two small policies imitating the offline allocator.

Per discrete budget level there is an agent pair. A regression policy picks
how many frames to sample in the coming window and a classification policy
picks which counter runs them; each has its own critic. Both observe the
same ten numbers: the (mean, std) count results of the four most recent
windows plus the same-time window one day back, normalized by frozen
per-scene scales. Training is advantage actor-critic against labels from
the offline allocator, replaying a few recorded horizons with fresh noise.
A runtime backstop keeps the pair inside the energy budget no matter what
the policies output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ._rng import derive_seed, keyed_normals, keyed_uniforms, spawn_rng
from .ci import sample_moments
from .counters import CounterModel, ErrorProfile, counter_seeds, observe_counts
from .fronts import (
    MIN_FRAMES,
    CountAction,
    EnergyModel,
    cheapest_counter,
    horizon_fronts,
    max_affordable_frames,
    picked_frames,
    snap_to_grid,
    window_energy,
)
from .mlp import Adam, Mlp, log_softmax, softmax
from .oracle import plan_horizon
from .traces import CountTrace, WindowSpec, read_json_object

OBS_DIM = 10  # (mean, std) of 4 recent windows + same-time window a day back
RECENT_WINDOWS = 4
HIDDEN = 64
GAMMA = 0.9  # discount of the one-step bootstrapped advantage
LEARNING_RATE = 3e-4
ENTROPY_COEF = 0.01
UNAFFORDABLE_PENALTY = 0.1  # reward lost by a step the backstop had to clamp
LOG_STD_INIT = -1.0  # regression policy's starting log standard deviation
LOG_STD_BOUNDS = (-4.0, 1.0)
MAX_PARAMS_PER_NET = 5500
MAX_ACTOR_MULTS = 10_000

# stream tags for keyed training randomness
_STREAM_REG_SAMPLE = 10
_STREAM_CLS_SAMPLE = 11
_STREAM_PHASE = 12
_EPISODE_STRIDE = 1 << 16  # keyed index = episode * stride + step


@dataclass
class EnergyLedger:
    """Mutable per-horizon energy account; spending only goes up."""

    budget_j: float
    spent_j: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.budget_j):
            raise ValueError(f"budget_j must be finite, got {self.budget_j!r}")

    @property
    def remaining_j(self) -> float:
        return self.budget_j - self.spent_j

    def charge(self, energy_j: float) -> None:
        if not math.isfinite(energy_j):
            raise ValueError(f"cannot charge non-finite energy {energy_j!r}")
        if energy_j < 0:
            raise ValueError("cannot charge negative energy")
        if energy_j > self.remaining_j + 1e-9:
            raise ValueError(
                f"ledger overdraft: charge {energy_j:.3f} J > remaining {self.remaining_j:.3f} J"
            )
        self.spent_j += energy_j


def bare_minimum(windows_remaining: int, counters: Sequence[CounterModel], em: EnergyModel) -> float:
    """Energy to finish the horizon at the cheapest counter and minimum frames."""
    if windows_remaining < 0:
        raise ValueError("windows_remaining must be >= 0")
    if windows_remaining == 0:
        return 0.0
    return windows_remaining * window_energy(MIN_FRAMES, cheapest_counter(counters), em)


def build_observation(
    stream: Sequence[Tuple[float, float]],
    horizon_windows: int,
    mean_scale: float,
    std_scale: float,
) -> np.ndarray:
    """Observation for the next window of a continuous run stream.

    stream[p] is the (mean, std) the system measured at window p, so the
    next window is window len(stream). Missing history (cold start)
    contributes zeros.
    """
    obs = np.zeros(OBS_DIM)
    position = len(stream)
    lookback = [position - 1 - i for i in range(RECENT_WINDOWS)]
    lookback.append(position - horizon_windows)  # same time one day back
    for slot, p in enumerate(lookback):
        if 0 <= p < len(stream):
            m, s = stream[p]
            obs[2 * slot] = m / mean_scale
            obs[2 * slot + 1] = s / std_scale
    return obs


class AgentPair:
    """Regression + classification policies (with critics) for one budget level."""

    def __init__(
        self,
        budget_level_j: float,
        counter_ids: Sequence[str],
        window_frames: int,
        norm_mean_scale: float,
        norm_std_scale: float,
        seed: int,
    ):
        if not counter_ids:
            raise ValueError("need at least one counter id")
        self.budget_level_j = float(budget_level_j)
        self.counter_ids = tuple(counter_ids)
        self.window_frames = int(window_frames)
        self.norm_mean_scale = float(norm_mean_scale)
        self.norm_std_scale = float(norm_std_scale)
        for name in ("norm_mean_scale", "norm_std_scale"):
            if not 0 < getattr(self, name) < math.inf:  # observations divide by it
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        k = len(self.counter_ids)
        rng = spawn_rng(seed, 4)
        self.reg_actor = Mlp([OBS_DIM, HIDDEN, HIDDEN, 1], rng)
        self.reg_critic = Mlp([OBS_DIM, HIDDEN, HIDDEN, 1], rng)
        self.cls_actor = Mlp([OBS_DIM, HIDDEN, HIDDEN, k], rng)
        self.cls_critic = Mlp([OBS_DIM, HIDDEN, HIDDEN, 1], rng)
        self.reg_log_std = LOG_STD_INIT
        for net in (self.reg_actor, self.reg_critic, self.cls_actor, self.cls_critic):
            if net.n_params >= MAX_PARAMS_PER_NET:
                raise ValueError(f"network too large: {net.n_params} parameters")
        if self.reg_actor.n_weight_mults + self.cls_actor.n_weight_mults > MAX_ACTOR_MULTS:
            raise ValueError("actor inference exceeds the multiply-add budget")

    def require_counters(self, counters: Sequence[CounterModel]) -> None:
        """Raise ValueError unless counters name exactly the pair's counter set."""
        trained, given = sorted(self.counter_ids), sorted(c.counter_id for c in counters)
        if set(trained) != set(given):
            raise ValueError(
                f"agent pair was trained on a different counter set: {trained}, not {given}"
            )

    def frames_from_raw(self, raw: float) -> int:
        """Map a raw policy output to a grid frame count in the window."""
        clipped = min(max(raw, 0.0), 1.0)
        n = MIN_FRAMES + clipped * (self.window_frames - MIN_FRAMES)
        return snap_to_grid(n, self.window_frames)


class _Backstop:
    """What the affordability clamp needs of a counter set and energy model.

    Built once per run, so a step pays for no lookup table, no cheapest
    counter search and no window energy.
    """

    def __init__(self, counters: Sequence[CounterModel], em: EnergyModel):
        self.by_id = {c.counter_id: c for c in counters}
        self.cheap = cheapest_counter(counters)
        self.em = em
        # bare_minimum(w, counters, em) == w * min_window_j, bit for bit
        self.min_window_j = window_energy(MIN_FRAMES, self.cheap, em)

    def resolve(
        self,
        pair: AgentPair,
        raw_frames: float,
        counter_idx: int,
        ledger: EnergyLedger,
        windows_remaining: int,
    ) -> Tuple[CountAction, bool]:
        if windows_remaining < 1:
            raise ValueError("windows_remaining must be >= 1")
        cheap = self.cheap
        remaining = ledger.remaining_j
        if remaining <= windows_remaining * self.min_window_j + 1e-9:
            return CountAction(cheap.counter_id, MIN_FRAMES), False

        proposed_n = pair.frames_from_raw(raw_frames)
        proposed_counter = self.by_id[pair.counter_ids[counter_idx]]
        allowance = remaining - (windows_remaining - 1) * self.min_window_j

        em = self.em
        cap = max_affordable_frames(allowance, proposed_counter, em, pair.window_frames)
        if cap is None:
            # even the minimum action is too dear on this counter; fall back
            fallback_cap = max_affordable_frames(allowance, cheap, em, pair.window_frames)
            assert fallback_cap is not None  # guaranteed: remaining > bare min
            return CountAction(cheap.counter_id, min(proposed_n, fallback_cap)), True
        if proposed_n > cap:
            return CountAction(proposed_counter.counter_id, cap), True
        return CountAction(proposed_counter.counter_id, proposed_n), False


def resolve_action(
    pair: AgentPair,
    raw_frames: float,
    counter_idx: int,
    ledger: EnergyLedger,
    windows_remaining: int,
    counters: Sequence[CounterModel],
    em: EnergyModel,
) -> Tuple[CountAction, bool]:
    """Clamp a proposed action into affordability; returns (action, was_clamped).

    The invariant maintained: after paying for the returned action, the
    remaining budget still covers the bare minimum of all later windows.
    """
    return _Backstop(counters, em).resolve(pair, raw_frames, counter_idx, ledger, windows_remaining)


def act(
    pair: AgentPair,
    obs: np.ndarray,
    ledger: EnergyLedger,
    windows_remaining: int,
    counters: Sequence[CounterModel],
    em: EnergyModel,
) -> CountAction:
    """Deterministic inference: mean frame count, argmax counter, then clamp."""
    raw = float(pair.reg_actor.forward(obs)[0, 0])
    logits = pair.cls_actor.forward(obs)[0]
    counter_idx = int(np.argmax(logits))
    action, _ = resolve_action(pair, raw, counter_idx, ledger, windows_remaining, counters, em)
    return action


# ---------------------------------------------------------------------------
# losses and analytic gradients (checked against finite differences in tests)


def gaussian_policy_loss_grads(
    actor: Mlp,
    log_std: float,
    obs: np.ndarray,
    raw_actions: np.ndarray,
    advantages: np.ndarray,
    entropy_coef: float,
):
    """Advantage-weighted negative log-likelihood with an entropy bonus.

    Returns (loss, flat gradient) where the gradient vector is the actor's
    flat parameters with d(loss)/d(log_std) appended as the final entry.
    """
    mean, acts = actor.forward_cache(obs)
    mean = mean[:, 0]
    sigma = math.exp(log_std)
    z = (raw_actions - mean) / sigma
    logp = -0.5 * z**2 - log_std - 0.5 * math.log(2.0 * math.pi)
    entropy = 0.5 * (1.0 + math.log(2.0 * math.pi)) + log_std
    n = len(raw_actions)
    loss = float(-(advantages * logp).sum() - entropy_coef * n * entropy)
    grad_mean = -(advantages * z / sigma)
    gw, gb = actor.backward(acts, grad_mean[:, None])
    grad_log_std = float(-(advantages * (z**2 - 1.0)).sum() - entropy_coef * n)
    flat = np.concatenate([Mlp.flatten_grads(gw, gb), [grad_log_std]])
    return loss, flat


def categorical_policy_loss_grads(
    actor: Mlp,
    obs: np.ndarray,
    action_idx: np.ndarray,
    advantages: np.ndarray,
    entropy_coef: float,
):
    logits, acts = actor.forward_cache(obs)
    logp = log_softmax(logits)
    p = np.exp(logp)
    rows = np.arange(len(action_idx))
    chosen_logp = logp[rows, action_idx]
    entropy = -(p * logp).sum(axis=1)
    loss = float(-(advantages * chosen_logp).sum() - entropy_coef * entropy.sum())
    onehot = np.zeros_like(p)
    onehot[rows, action_idx] = 1.0
    grad_logits = -advantages[:, None] * (onehot - p)
    grad_logits += entropy_coef * p * (logp + entropy[:, None])
    gw, gb = actor.backward(acts, grad_logits)
    return loss, Mlp.flatten_grads(gw, gb)


def value_loss_grads(critic: Mlp, obs: np.ndarray, targets: np.ndarray, cache=None):
    """Squared-error loss and flat gradient; `cache` is `critic.forward_cache(obs)` if known."""
    v, acts = critic.forward_cache(obs) if cache is None else cache
    v = v[:, 0]
    diff = v - targets
    loss = float(0.5 * (diff**2).sum())
    gw, gb = critic.backward(acts, diff[:, None])
    return loss, Mlp.flatten_grads(gw, gb)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    """Length of a training run; every other setting is a module constant."""

    episodes: int = 2000


@dataclass(frozen=True)
class TrainingData:
    """Recorded horizons with offline-allocator labels for one budget level."""

    budget_j: float
    horizons: tuple  # CountTrace per training horizon
    plans: tuple  # HorizonPlan per horizon, aligned
    counters: tuple
    em: EnergyModel
    spec: WindowSpec
    mean_scale: float
    std_scale: float

    def __post_init__(self):
        if len(self.horizons) != len(self.plans):
            raise ValueError("missing oracle label: horizons and plans must align")
        if len(self.horizons) < 3:
            raise ValueError("need at least 3 training horizons")
        for plan in self.plans:
            if len(plan.actions) != self.spec.horizon_windows:
                raise ValueError("missing oracle label: plan does not cover the horizon")


def normalization_scales(trace: CountTrace, horizon_indices, spec: WindowSpec) -> Tuple[float, float]:
    """Frozen per-scene scales: 95th percentile of window means and stds."""
    means = []
    stds = []
    for h in horizon_indices:
        horizon = trace.horizon_slice(h, spec)
        for w in range(spec.horizon_windows):
            window = horizon.window_slice(w, spec)
            means.append(float(window.mean()))
            stds.append(float(window.std()))
    mean_scale = max(float(np.percentile(means, 95)), 1e-6)
    std_scale = max(float(np.percentile(stds, 95)), 1e-6)
    return mean_scale, std_scale


def prepare_training_data(
    trace: CountTrace,
    horizon_indices: Sequence[int],
    budget_j: float,
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    spec: WindowSpec,
    seed: int,
) -> TrainingData:
    """Label training horizons with offline plans at one budget level."""
    horizons = []
    plans = []
    for h in horizon_indices:
        horizon = trace.horizon_slice(h, spec)
        seeds = counter_seeds(counters, seed, 30, h)
        fronts = horizon_fronts(horizon, counters, em, profiles, spec, seeds)
        horizons.append(horizon)
        plans.append(plan_horizon(fronts, budget_j))
    mean_scale, std_scale = normalization_scales(trace, horizon_indices, spec)
    return TrainingData(
        budget_j=budget_j,
        horizons=tuple(horizons),
        plans=tuple(plans),
        counters=tuple(counters),
        em=em,
        spec=spec,
        mean_scale=mean_scale,
        std_scale=std_scale,
    )


def _categorical_draw(probs: np.ndarray, u: float) -> int:
    # the index searchsorted(cumsum(probs), u, side="right") gives, clipped to
    # the last: np.cumsum adds in order as this running sum does, and
    # "not u >= acc" also stops at a NaN, which searchsorted sorts last
    acc = 0.0
    for i, p in enumerate(probs.tolist()):
        acc += p
        if not u >= acc:
            return i
    return len(probs) - 1


def a2c_train(
    data: TrainingData,
    pair: AgentPair,
    cfg: TrainConfig,
    seed: int,
) -> List[Tuple[int, float, float, float]]:
    """Train the pair in place; returns (episode, reward, reward, entropy) rows.

    One episode replays one training horizon end to end with fresh counter
    and sampling noise; the episode is also the minibatch. All draws are
    keyed by (seed, episode, step), so a rerun reproduces training exactly.

    The first time an episode runs a counter, that counter observes the
    whole horizon in one :func:`observe_counts` call; each step then takes
    its window's :func:`fronts.picked_frames` from that array. Observed
    counts are keyed by frame index, so these are the counts that observing
    only the picked frames gives, as :func:`fronts.execute_windows` does.
    """
    spec = data.spec
    wf = pair.window_frames
    n_steps = spec.horizon_windows
    if n_steps >= _EPISODE_STRIDE:
        raise ValueError("horizon too long for the keyed index layout")
    if wf != spec.window_frames(data.horizons[0].fps):
        raise ValueError("agent pair and training data disagree on the window length")
    pair.require_counters(data.counters)
    backstop = _Backstop(data.counters, data.em)
    horizon_frames = np.arange(n_steps * wf, dtype=np.int64)

    opt_reg = Adam(pair.reg_actor.n_params + 1, LEARNING_RATE)
    opt_reg_v = Adam(pair.reg_critic.n_params, LEARNING_RATE)
    opt_cls = Adam(pair.cls_actor.n_params, LEARNING_RATE)
    opt_cls_v = Adam(pair.cls_critic.n_params, LEARNING_RATE)

    stream: List[Tuple[float, float]] = []  # measured (mean, std) per executed window
    log_rows: List[Tuple[int, float, float, float]] = []

    for episode in range(cfg.episodes):
        h = episode % len(data.horizons)
        horizon = data.horizons[h]
        plan = data.plans[h]
        ep_seed = derive_seed(seed, 20, episode)
        ledger = EnergyLedger(budget_j=data.budget_j)
        # every keyed draw of the episode in one call per stream; keyed draws
        # are elementwise, so these equal one call per step
        steps = np.arange(n_steps)
        keys = episode * _EPISODE_STRIDE + steps
        z_reg = keyed_normals(seed, _STREAM_REG_SAMPLE, keys, 0.0, 1.0).tolist()
        u_cls = keyed_uniforms(seed, _STREAM_CLS_SAMPLE, keys).tolist()
        phase_u = keyed_uniforms(ep_seed, _STREAM_PHASE, steps).tolist()
        obs_seeds = counter_seeds(data.counters, ep_seed)
        observed: Dict[str, np.ndarray] = {}  # counter id -> the horizon's observed counts
        sigma = math.exp(pair.reg_log_std)
        gauss_entropy = 0.5 * (1.0 + math.log(2.0 * math.pi)) + pair.reg_log_std

        obs_batch = np.zeros((n_steps, OBS_DIM))
        raw_actions = np.zeros(n_steps)
        cls_actions = np.zeros(n_steps, dtype=np.int64)
        rewards_reg = np.zeros(n_steps)
        rewards_cls = np.zeros(n_steps)
        probs_batch = np.zeros((n_steps, len(pair.counter_ids)))

        for t in range(n_steps):
            obs = build_observation(
                stream, spec.horizon_windows, pair.norm_mean_scale, pair.norm_std_scale
            )
            obs_batch[t] = obs

            mean_raw = float(pair.reg_actor.forward(obs)[0, 0])
            raw = mean_raw + sigma * z_reg[t]
            logits = pair.cls_actor.forward(obs)[0]
            probs = softmax(logits)
            c_idx = _categorical_draw(probs, u_cls[t])

            action, clamped = backstop.resolve(pair, raw, c_idx, ledger, n_steps - t)
            counter = backstop.by_id[action.counter_id]
            ledger.charge(window_energy(action.n_frames, counter, data.em))

            counts = observed.get(counter.counter_id)
            if counts is None:
                counts = observed[counter.counter_id] = observe_counts(
                    horizon.counts[: horizon_frames.size], horizon_frames, counter,
                    obs_seeds[counter.counter_id],
                )
            picks = counts[picked_frames(t, wf, action.n_frames, phase_u[t])]
            mean, std = sample_moments(picks.astype(np.float64))
            stream.append((float(mean), float(std)))

            label = plan.actions[t]
            penalty = UNAFFORDABLE_PENALTY if clamped else 0.0
            rewards_reg[t] = -abs(action.n_frames - label.n_frames) / wf - penalty
            rewards_cls[t] = (1.0 if action.counter_id == label.counter_id else 0.0) - penalty

            raw_actions[t] = raw
            cls_actions[t] = c_idx
            probs_batch[t] = probs

        # each row's entropy is elementwise work and a sum along its own row,
        # so one pass over the episode gives the per-step values
        cat_entropy = -(probs_batch * np.log(probs_batch + 1e-300)).sum(axis=1)
        entropies = 0.5 * (cat_entropy + gauss_entropy)

        # minibatch update: one-step bootstrapped advantages per agent
        # the critics' parameters do not change before their own step, so
        # these passes also serve value_loss_grads
        reg_cache = pair.reg_critic.forward_cache(obs_batch)
        cls_cache = pair.cls_critic.forward_cache(obs_batch)
        v_reg = reg_cache[0][:, 0]
        v_cls = cls_cache[0][:, 0]
        next_reg = np.append(v_reg[1:], 0.0)
        next_cls = np.append(v_cls[1:], 0.0)
        targets_reg = rewards_reg + GAMMA * next_reg
        targets_cls = rewards_cls + GAMMA * next_cls
        adv_reg = targets_reg - v_reg
        adv_cls = targets_cls - v_cls

        _, g_reg = gaussian_policy_loss_grads(
            pair.reg_actor, pair.reg_log_std, obs_batch, raw_actions, adv_reg, ENTROPY_COEF
        )
        params = np.concatenate([pair.reg_actor.get_flat(), [pair.reg_log_std]])
        params = opt_reg.step(params, g_reg)
        pair.reg_actor.set_flat(params[:-1])
        lo, hi = LOG_STD_BOUNDS
        pair.reg_log_std = float(min(max(params[-1], lo), hi))

        _, g_cls = categorical_policy_loss_grads(
            pair.cls_actor, obs_batch, cls_actions, adv_cls, ENTROPY_COEF
        )
        pair.cls_actor.set_flat(opt_cls.step(pair.cls_actor.get_flat(), g_cls))

        _, g_vr = value_loss_grads(pair.reg_critic, obs_batch, targets_reg, reg_cache)
        pair.reg_critic.set_flat(opt_reg_v.step(pair.reg_critic.get_flat(), g_vr))
        _, g_vc = value_loss_grads(pair.cls_critic, obs_batch, targets_cls, cls_cache)
        pair.cls_critic.set_flat(opt_cls_v.step(pair.cls_critic.get_flat(), g_vc))

        log_rows.append(
            (episode, float(rewards_reg.mean()), float(rewards_cls.mean()), float(entropies.mean()))
        )
    return log_rows


def save_training_log(rows, path) -> None:
    lines = ["episode,mean_reward_reg,mean_reward_cls,entropy"]
    for episode, r_reg, r_cls, entropy in rows:
        lines.append(f"{episode},{r_reg!r},{r_cls!r},{entropy!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints


def save_agent_pair(pair: AgentPair, path) -> None:
    def net(n: Mlp):
        return {"sizes": list(n.sizes), "params": n.get_flat().tolist()}

    payload = {
        "format_version": 1,
        "budget_level_j": pair.budget_level_j,
        "counter_ids": list(pair.counter_ids),
        "window_frames": pair.window_frames,
        "norm_mean_scale": pair.norm_mean_scale,
        "norm_std_scale": pair.norm_std_scale,
        "reg_log_std": pair.reg_log_std,
        "networks": {
            "reg_actor": net(pair.reg_actor),
            "reg_critic": net(pair.reg_critic),
            "cls_actor": net(pair.cls_actor),
            "cls_critic": net(pair.cls_critic),
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_agent_pair(path) -> AgentPair:
    d = read_json_object(path)
    version = d.integer("format_version")
    if version != 1:
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    pair = d.build(
        AgentPair,
        budget_level_j=d.number("budget_level_j"),
        counter_ids=d.strings("counter_ids"),
        window_frames=d.integer("window_frames"),
        norm_mean_scale=d.number("norm_mean_scale"),
        norm_std_scale=d.number("norm_std_scale"),
        seed=0,
    )
    pair.reg_log_std = d.number("reg_log_std")
    networks = d.nested("networks")
    for name in ("reg_actor", "reg_critic", "cls_actor", "cls_critic"):
        net, stored = getattr(pair, name), networks.nested(name)
        if stored.numbers("sizes").tolist() != list(net.sizes):
            raise ValueError(f"{path}: checkpoint layer sizes for {name} do not match")
        params = stored.numbers("params")
        if params.shape != (net.n_params,):
            raise stored.error("params", f"{net.n_params} numbers", params.size)
        net.set_flat(params)
    return pair

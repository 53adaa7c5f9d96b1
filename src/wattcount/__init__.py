"""Energy-budgeted object-count estimation toolkit.

Simulates the full pipeline of an energy-constrained counting camera:
ground-truth trace synthesis and ingestion, counter error simulation and
profiling, intervals that fuse sampling and counter error, per-window
energy/CI fronts, an offline allocator, an online imitation-trained planner
with a budget backstop, and an end-to-end horizon simulator with metrics.
"""

from ._rng import derive_seed, keyed_normals, keyed_uniforms, spawn_rng
from .ci import (
    ConfidenceInterval,
    SampleStats,
    approx_ci,
    mean_to_sum,
    monte_carlo_ci,
    sample_stats,
    select_branch,
    sigma_mu_x,
    z_score,
)
from .counters import (
    CounterModel,
    ErrorProfile,
    UnprofiledRegimeError,
    apply_counter,
    load_profile,
    observe_counts,
    profile_errors,
    save_profile,
    window_mean_pairs,
)
from .fronts import (
    GRID_STEP,
    MIN_FRAMES,
    CountAction,
    EnergyCIFront,
    EnergyModel,
    FrontPoint,
    action_outcome,
    build_front,
    cheapest_counter,
    default_grid,
    front_gradient,
    save_front,
    snap_to_grid,
    uniform_sample_indices,
    window_energy,
)
from .mlp import Adam, Mlp, log_softmax, softmax
from .oracle import HorizonPlan, plan_horizon, plan_quality, save_plan
from .agents import (
    AgentPair,
    EnergyLedger,
    TrainConfig,
    TrainingData,
    a2c_train,
    act,
    build_observation,
    categorical_policy_loss_grads,
    gaussian_policy_loss_grads,
    load_agent_pair,
    normalization_scales,
    prepare_training_data,
    resolve_action,
    save_agent_pair,
    save_training_log,
    value_loss_grads,
)
from .simulate import (
    FixedCounterPlannerSpec,
    MetricsReport,
    OraclePlannerSpec,
    RlPlannerSpec,
    WindowResult,
    compare_baselines,
    horizon_seed,
    load_results,
    oracle_fronts,
    run_horizon,
    save_comparison,
    save_manifest,
    save_results,
    score,
    select_uni_counter,
    simulate_scene,
)
from .traces import (
    CountTrace,
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

__version__ = "0.1.0"

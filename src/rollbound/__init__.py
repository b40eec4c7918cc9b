"""Keyframe-anchored long-horizon rollout planning, error-propagation bounds,
a controllable toy world for observing them, and camera-trajectory metrics."""

from .core import (
    RolloutPlan,
    Trajectory,
    load_trajectory,
    save_trajectory,
    validate_plan,
)
from .errormodel import (
    BoundBreakdown,
    DAMPING_FACTOR,
    SplineSolution,
    bridge_mean,
    bridge_variance,
    cumulative_leakage_bound,
    discrete_spline_minimizer,
    leakage_peak,
    simulate_bridge_paths,
    solve_damping_spline,
    unified_bound,
)
from .errors import InvalidInput
from .expconfig import ExperimentConfig, load_config, save_config
from .metrics import (
    AlignmentResult,
    align_similarity,
    are,
    psnr,
    slerp,
    smoothness,
    ssim,
)
from .schedule import (
    build_plan,
    partition_segments,
    save_plan,
    segment_context,
    select_keyframes,
)
from .worldsim import (
    ComparisonReport,
    RolloutTrace,
    WorldConfig,
    compare_pipelines,
    generate_keyframes,
    rollout_anchored,
    rollout_pure_ar,
    simulate_ground_truth,
)

__version__ = "0.1.0"

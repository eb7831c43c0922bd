"""repro — a reproduction of *Private Incremental Regression*.

Kasiviswanathan, Nissim, Jin (PODS 2017, arXiv:1701.01093).

The library maintains a differentially private estimate of a constrained
empirical risk minimizer over a data stream, releasing an updated parameter
at every timestep while the whole output sequence satisfies event-level
``(ε, δ)``-differential privacy.

Quickstart
----------
>>> import numpy as np
>>> from repro import PrivIncReg1, PrivacyParams, L2Ball
>>> mech = PrivIncReg1(horizon=100, constraint=L2Ball(dim=5),
...                    params=PrivacyParams(1.0, 1e-6), rng=0)
>>> theta = mech.observe(np.array([0.5, 0, 0, 0, 0]), 0.25)

Package map
-----------
``repro.core``       the paper's mechanisms (Mechanism 1, Algorithms 2-3)
``repro.privacy``    DP primitives + the Tree/Hybrid continual mechanisms
``repro.geometry``   constraint sets, projections, gauges, Gaussian widths
``repro.erm``        losses, objectives, batch private ERM solvers
``repro.sketching``  Gaussian projections, Gordon sizing, lifting
``repro.streaming``  stream model, adjacency, runner, metrics
``repro.data``       synthetic / adaptive / drifting workloads
"""

from .exceptions import (
    DomainViolationError,
    FleetExecutionError,
    GroupIngestionError,
    LiftingError,
    NoEstimateError,
    NotSupportedError,
    PrivacyBudgetError,
    PublishConflictError,
    ReproError,
    ServingError,
    ShardTimeoutError,
    ShardUnavailableError,
    StreamExhaustedError,
    ValidationError,
    WaitTimeoutError,
)
from .privacy import (
    DecayedTreeMechanism,
    HybridMechanism,
    MergedRelease,
    PrivacyAccountant,
    PrivacyParams,
    ReleaseMechanism,
    ReleasedMoments,
    SketchNoiseMechanism,
    SlidingWindowMechanism,
    TreeMechanism,
    bundle_budgets,
    make_release_mechanism,
    merge_released,
    shard_budgets,
    tenant_budgets,
)
from .geometry import (
    GroupL1Ball,
    L1Ball,
    L2Ball,
    LinfBall,
    LpBall,
    Polytope,
    Simplex,
    SparseVectors,
)
from .erm import (
    EmpiricalRisk,
    HingeLoss,
    HuberLoss,
    LogisticLoss,
    NoisyProjectedGradient,
    NoisySGD,
    OutputPerturbation,
    PrivateFrankWolfe,
    QuadraticRisk,
    RegularizedLoss,
    SquaredLoss,
)
from .sketching import (
    GaussianProjection,
    Projection,
    SparseProjection,
    gordon_dimension,
    lift,
    step4_rescale_block,
)
from .streaming import (
    EstimateCache,
    EstimateHub,
    ExcessRiskTrace,
    FleetResult,
    FleetRunner,
    IncrementalRunner,
    MomentBundle,
    MomentShard,
    MomentStatistic,
    MultiTenantStream,
    ProcessShardWorker,
    ReaderHandle,
    ReadStats,
    RegressionStream,
    ReplicateResult,
    ReplicateSpec,
    RunResult,
    ServedEstimate,
    ShardAddress,
    ShardedStream,
    ShardHostListener,
    ShardRpcClient,
    Subscription,
    TcpShardWorker,
    TenantShard,
    TenantView,
)
from .core import (
    NaiveRecompute,
    NonPrivateIncremental,
    PrivateGradientFunction,
    PrivIncERM,
    PrivIncIV,
    PrivIncReg1,
    PrivIncReg2,
    RobustPrivIncReg,
    StaticOutput,
    UnboundedPrivIncReg,
    bounds,
    two_stage_least_squares,
    tau_convex,
    tau_frank_wolfe,
    tau_strongly_convex,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "ValidationError",
    "PrivacyBudgetError",
    "StreamExhaustedError",
    "DomainViolationError",
    "LiftingError",
    "NotSupportedError",
    "ShardTimeoutError",
    "ShardUnavailableError",
    "ServingError",
    "NoEstimateError",
    "PublishConflictError",
    "WaitTimeoutError",
    "GroupIngestionError",
    "FleetExecutionError",
    # privacy
    "PrivacyParams",
    "PrivacyAccountant",
    "TreeMechanism",
    "HybridMechanism",
    "ReleaseMechanism",
    "DecayedTreeMechanism",
    "SketchNoiseMechanism",
    "SlidingWindowMechanism",
    "make_release_mechanism",
    "MergedRelease",
    "ReleasedMoments",
    "merge_released",
    "bundle_budgets",
    "shard_budgets",
    "tenant_budgets",
    # geometry
    "L2Ball",
    "L1Ball",
    "LinfBall",
    "LpBall",
    "Simplex",
    "Polytope",
    "GroupL1Ball",
    "SparseVectors",
    # erm
    "SquaredLoss",
    "LogisticLoss",
    "HingeLoss",
    "HuberLoss",
    "RegularizedLoss",
    "EmpiricalRisk",
    "QuadraticRisk",
    "NoisyProjectedGradient",
    "NoisySGD",
    "OutputPerturbation",
    "PrivateFrankWolfe",
    # sketching
    "GaussianProjection",
    "Projection",
    "SparseProjection",
    "gordon_dimension",
    "lift",
    "step4_rescale_block",
    # streaming
    "RegressionStream",
    "IncrementalRunner",
    "RunResult",
    "ExcessRiskTrace",
    "FleetRunner",
    "FleetResult",
    "ReplicateSpec",
    "ReplicateResult",
    "ShardedStream",
    "MomentBundle",
    "MomentStatistic",
    "MomentShard",
    "TenantShard",
    "MultiTenantStream",
    "TenantView",
    "ProcessShardWorker",
    "ShardRpcClient",
    "ShardAddress",
    "ShardHostListener",
    "TcpShardWorker",
    "EstimateCache",
    "EstimateHub",
    "ReaderHandle",
    "Subscription",
    "ReadStats",
    "ServedEstimate",
    # core
    "PrivateGradientFunction",
    "PrivIncERM",
    "tau_convex",
    "tau_strongly_convex",
    "tau_frank_wolfe",
    "PrivIncReg1",
    "PrivIncReg2",
    "PrivIncIV",
    "two_stage_least_squares",
    "RobustPrivIncReg",
    "UnboundedPrivIncReg",
    "NonPrivateIncremental",
    "StaticOutput",
    "NaiveRecompute",
    "bounds",
]

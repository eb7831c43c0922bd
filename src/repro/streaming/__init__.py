"""Streaming substrate: stream model, runner, fleet, metrics.

The paper's incremental setting (§1) fixes a stream length ``T``; one
covariate-response pair arrives per timestep; the algorithm outputs an
estimator after *seeing* the point (unlike online learning, which commits
first — see the paper's "Comparison to Online Learning").  The runner in
this package drives any incremental estimator over a stream — point by
point, or in blocks via the estimators' ``observe_batch`` fast path — and
measures the Definition-1 excess risk against the exact constrained
minimizer.  The fleet runner replicates such runs across seeds and worker
processes for Monte-Carlo sweeps.  The serving module adds the production
front: a sharded stream with per-shard moment trees, a noise-preserving
merge rule, asynchronous ingestion, and a versioned estimate cache; the
transport module lets those shard workers run in their own interpreters
behind ``multiprocessing`` pipes (``ShardedStream(transport="process")``),
shipping released moments back as ``ReleasedMoments`` records in the
typed frames of the wire module (no pickle); the netserve module serves
the same command protocol over the same frames, length-prefixed on TCP
(``ShardedStream(transport="tcp")``: ``ShardHostListener`` hosts,
``ShardAddress`` rendezvous, per-RPC deadlines and heartbeats), so
shards run on separate hosts.  The readers
module is the read-side counterpart: lock-free estimate fan-out through
per-reader snapshot handles and pub-sub invalidation
(``ShardedStream.reader()`` / ``subscribe`` / ``wait_for_version``).
"""

from .stream import RegressionStream
from .metrics import ExcessRiskTrace, ReadStats
from .runner import IncrementalRunner, RunResult
from .fleet import FleetResult, FleetRunner, ReplicateResult, ReplicateSpec
from .backends import BACKENDS, Backend
from ..core.moments import MomentBundle, MomentStatistic
from .readers import EstimateHub, ReaderHandle, ServedEstimate, Subscription
from .serving import MomentShard, ShardedStream, TenantShard
from .tenancy import MultiTenantStream, TenantView
from .transport import ProcessShardWorker, ShardRpcClient, ShardSpec
from .netserve import ShardAddress, ShardHostListener, TcpShardWorker

__all__ = [
    "RegressionStream",
    "ExcessRiskTrace",
    "ReadStats",
    "IncrementalRunner",
    "RunResult",
    "FleetRunner",
    "FleetResult",
    "ReplicateSpec",
    "ReplicateResult",
    "ShardedStream",
    "Backend",
    "BACKENDS",
    "MomentBundle",
    "MomentStatistic",
    "MomentShard",
    "TenantShard",
    "MultiTenantStream",
    "TenantView",
    "ProcessShardWorker",
    "ShardRpcClient",
    "ShardSpec",
    "ShardAddress",
    "ShardHostListener",
    "TcpShardWorker",
    "EstimateHub",
    "ReaderHandle",
    "Subscription",
    "ServedEstimate",
]

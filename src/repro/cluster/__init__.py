"""Multi-replica serving: event simulation, routing, admission, SLOs.

``repro.serving`` answers "what does load do to one engine?"; this
package answers the fleet question the ROADMAP's north star poses: given
N engine replicas, how should requests be routed, what must be shed
under overload, and what goodput/SLO attainment does each policy
deliver?  Cache-affinity routing is the paper-grounded centerpiece —
DAOP's sequence-specific expert allocation makes a replica's GPU expert
cache traffic-shaped, so similarity-preserving routing keeps caches
warm (see docs/serving.md).
"""

from repro.cluster.admission import EXPIRED, SHED, AdmissionController
from repro.cluster.events import (
    ARRIVAL,
    COMPLETION,
    DISPATCH,
    Event,
    EventQueue,
    ReplicaState,
    RequestInfo,
)
from repro.cluster.report import (
    ClusterReport,
    ClusterRequest,
    RejectedRequest,
)
from repro.cluster.routing import (
    POLICIES,
    POLICY_NAMES,
    CacheAffinityPolicy,
    JoinShortestQueuePolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    build_policy,
    least_loaded,
)
from repro.cluster.simulator import (
    ClusterSession,
    ClusterSimulator,
    prefill_fingerprint,
    warm_hit_rate,
)
from repro.workloads.requests import SLOTarget

__all__ = [
    "EXPIRED",
    "SHED",
    "AdmissionController",
    "SLOTarget",
    "ARRIVAL",
    "COMPLETION",
    "DISPATCH",
    "Event",
    "EventQueue",
    "ReplicaState",
    "RequestInfo",
    "ClusterReport",
    "ClusterRequest",
    "RejectedRequest",
    "POLICIES",
    "POLICY_NAMES",
    "CacheAffinityPolicy",
    "JoinShortestQueuePolicy",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "build_policy",
    "least_loaded",
    "ClusterSession",
    "ClusterSimulator",
    "prefill_fingerprint",
    "warm_hit_rate",
]

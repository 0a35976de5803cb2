"""Fault-tolerant cluster plane for the quantile service.

This package turns a fleet of single-node quantile services
(:mod:`repro.service`) into a replicated cluster:

* :mod:`repro.cluster.ring` — :class:`ClusterMap`, a versioned
  consistent-hash ring with virtual nodes and replication factor R.
* :mod:`repro.cluster.client` — :class:`ClusterClient` /
  :class:`AsyncClusterClient`: replicated exactly-once writes, reads
  that fail over across replicas, hinted handoff for down nodes.  Both
  are thin drivers over one I/O-free replication core and expose the
  same operations; the write fan-out is the one step they run
  differently (ring order vs. ``asyncio.gather``), under one rule:
  every replica of an attempt is tried before a ``WRONG_TOPOLOGY``
  redirect re-routes the replicas not yet written.
* :mod:`repro.cluster.handoff` — :class:`HintQueue`, the bounded buffer
  of writes a down replica missed.
* :mod:`repro.cluster.repair` — :func:`repair`, the anti-entropy pass
  that detects replica divergence (per-key ``n`` via ``STATS``, payload
  digests via ``FETCH``) and heals it exactly (``FETCH`` + ``MERGE``).
* :mod:`repro.cluster.reshard` — :class:`Rebalancer`, live elastic
  resharding between two map versions with zero acked-write loss.

The whole design leans on the paper's full-mergeability theorem
(Theorem 3): every replica's sketch is a valid REQ summary, any replica
can answer a query within the single-sketch error bound, and repair is
a sketch merge — no quorum reads, no read-repair write path.
"""

from repro.cluster.client import AsyncClusterClient, ClusterClient
from repro.cluster.handoff import DEFAULT_MAX_HINTS, DEFAULT_MAX_VALUES, Hint, HintQueue
from repro.cluster.repair import KeyRepair, RepairReport, repair
from repro.cluster.reshard import KeyMove, Rebalancer, ReshardReport
from repro.cluster.ring import DEFAULT_VNODES, ClusterMap, ClusterNode, key_hash

__all__ = [
    "ClusterMap",
    "ClusterNode",
    "ClusterClient",
    "AsyncClusterClient",
    "Hint",
    "HintQueue",
    "KeyMove",
    "KeyRepair",
    "Rebalancer",
    "RepairReport",
    "ReshardReport",
    "repair",
    "key_hash",
    "DEFAULT_VNODES",
    "DEFAULT_MAX_HINTS",
    "DEFAULT_MAX_VALUES",
]

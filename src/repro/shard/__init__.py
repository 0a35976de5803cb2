"""Sharded ingestion and aggregation over the fast engine.

:class:`ShardedReqSketch` partitions one logical stream round-robin across
``S`` independent :class:`~repro.fast.FastReqSketch` shards, and
``collect()`` returns their ``merge_many`` union — the Theorem 3
mergeability property is what makes the union lossless.  Two backends:
``local`` (same-process shards) and ``process`` (a ``ProcessPoolExecutor``
that ships batches out and returns ``FRQ1`` wire payloads, for multi-core
ingestion).
"""

from repro.shard.sharded import ShardedReqSketch

__all__ = ["ShardedReqSketch"]

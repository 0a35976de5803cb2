#!/usr/bin/env python3
"""Quickstart: build a REQ sketch, query ranks and quantiles.

Run::

    python examples/quickstart.py [--n 200000]

Demonstrates the one-minute API: create a sketch, stream data in, read
quantiles and ranks out, and check the answers against ground truth.
"""

from __future__ import annotations

import argparse
import bisect
import random

from repro import ReqSketch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200_000, help="stream length")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    # A lognormal stream: right-skewed, like most real measurements.
    rng = random.Random(args.seed)
    stream = [rng.lognormvariate(0.0, 1.0) for _ in range(args.n)]

    # Default scheme: just pick an even k.  Larger k = more accurate.
    sketch = ReqSketch(k=32, seed=args.seed)
    sketch.update_many(stream)

    print(f"stream length       : {sketch.n:,}")
    print(f"items retained      : {sketch.num_retained:,} "
          f"({100 * sketch.num_retained / sketch.n:.2f}% of the stream)")
    print(f"compactor levels    : {sketch.num_levels}")
    print(f"a-priori error bound: {sketch.error_bound():.4f} (multiplicative)")
    print()

    # Quantiles: fraction -> value.
    exact = sorted(stream)
    print(f"{'fraction':>9} {'estimate':>12} {'exact':>12}")
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        estimate = sketch.quantile(q)
        truth = exact[int(q * len(exact))]
        print(f"{q:>9} {estimate:>12.5f} {truth:>12.5f}")
    print()

    # Ranks: value -> how many stream items were <= value.
    # The guarantee: relative error at most eps with high probability,
    # which means LOW ranks are estimated very precisely.
    print(f"{'value':>9} {'est rank':>10} {'true rank':>10} {'rel err':>9}")
    for fraction in (0.0001, 0.001, 0.01, 0.5):
        y = exact[int(fraction * len(exact))]
        true_rank = bisect.bisect_right(exact, y)
        est = sketch.rank(y)
        rel = abs(est - true_rank) / true_rank
        print(f"{y:>9.4f} {est:>10,} {true_rank:>10,} {rel:>9.5f}")

    # Rank confidence interval from the (1 +/- eps) guarantee.
    y = exact[len(exact) // 100]
    lower, upper = sketch.rank_bounds(y)
    print(f"\n95%-ish rank interval for the 1st percentile value: [{lower:,}, {upper:,}]")

    # ------------------------------------------------------------------
    # Performance: FastReqSketch for float streams
    # ------------------------------------------------------------------
    # ReqSketch handles any ordered items (floats, strings, tuples, ...).
    # For plain numbers, FastReqSketch is the same algorithm ~100-500x
    # faster: batches go through one vectorized numpy path, and scalar
    # updates are staged in a C-backed block and ingested in bulk.
    #
    # Two things to know about the staged scalar path:
    #   * update() stages items; they are counted immediately (sketch.n)
    #     and queries see them, but they only enter the level structure
    #     (and compact) when the block fills or flush() is called;
    #   * pass numpy arrays (or lists) to update_many() whenever data
    #     arrives in batches — it is the fastest path by far.
    from repro import FastReqSketch

    fast = FastReqSketch(k=32, seed=args.seed)
    fast.update_many(stream)          # one vectorized ingest
    fast.update(stream[0])            # staged ...
    fast.flush()                      # ... and drained into the levels
    print(f"\nFastReqSketch p99    : {fast.quantile(0.99):.5f} "
          f"(n={fast.n:,}, retained={fast.num_retained:,})")

    # ------------------------------------------------------------------
    # Sharded aggregation: scale past one sketch / one process
    # ------------------------------------------------------------------
    # The paper's mergeability theorem (Theorem 3) says REQ sketches can be
    # combined in ARBITRARY merge trees with no accuracy loss: the union of
    # any partition of a stream answers queries in the same (1 +/- eps)
    # error class as a single sketch fed everything.  Three consequences:
    #
    #   * merge_many(shards) unions any number of sketches in one pass
    #     (snapshots every input once, compresses once) — several times
    #     faster than folding pairwise merges, and the inputs are never
    #     mutated, so shards keep ingesting afterwards;
    #   * to_bytes()/from_bytes() move sketches across process or machine
    #     boundaries in the compact FRQ1 wire format (zero-copy decode).
    #     The layout is versioned and stable — payloads written today keep
    #     decoding in later releases;
    #   * ShardedReqSketch wraps both: split batches round-robin across S
    #     shards (backend="local" in-process, or backend="process" for a
    #     worker pool that ships wire payloads back); collect() is the union.
    #
    # Shard for cores, isolation, or distribution — never for accuracy.
    from repro import ShardedReqSketch

    sharded = ShardedReqSketch(4, k=32, seed=args.seed)
    sharded.update_many(stream)
    union = sharded.collect()         # one merge_many over the 4 shards
    single_p99 = fast.quantile(0.99)
    print(f"4-shard union p99    : {union.quantile(0.99):.5f} "
          f"(vs single-sketch {single_p99:.5f} — same error class)")

    # The same union, by hand, via the wire format (what the process
    # backend ships): sketch each partition wherever it lives, move the
    # bytes, decode and union at the aggregator.
    payloads = []
    for offset in range(4):
        shard = FastReqSketch(k=32, seed=args.seed + offset)
        shard.update_many(stream[offset::4])   # this partition's slice
        payloads.append(shard.to_bytes())      # ... sketched at the edge
    revived = FastReqSketch(k=32, seed=args.seed)
    revived.merge_many([FastReqSketch.from_bytes(p) for p in payloads])
    print(f"wire-format round trip: n={revived.n:,}, "
          f"{len(payloads)} payloads, {sum(map(len, payloads)):,} bytes total")

    # ------------------------------------------------------------------
    # The service plane: serve quantiles to many clients over TCP
    # ------------------------------------------------------------------
    # `repro-quantiles serve --port 7379 --data-dir ./qdata` runs this as
    # a standalone process; here ServerThread hosts the same server
    # in-process on a free port to show the client API.  Each key is its
    # own sketch (tenants, metrics, windows...), created lazily on first
    # ingest.  With a --data-dir every batch is WAL-logged and
    # periodically snapshotted, so a restarted server answers
    # identically; with a --memory-budget cold keys spill to disk and
    # reload on demand.
    from repro.service import QuantileClient, QuantileService, ServerThread

    with ServerThread(QuantileService(None, k=32)) as running:
        with QuantileClient(port=running.port) as client:
            # Pipelined ingest: a window of frames rides the wire before
            # the first ack is awaited, and the server coalesces the
            # frames it drains per event-loop tick into single
            # update_many batches — the high-throughput path.
            for tenant in ("acme", "globex"):
                client.ingest_stream(f"{tenant}/latency", stream[:50_000],
                                     frame_values=8192, window=16)
            result = client.query("acme/latency", [0.5, 0.99])
            print(f"\nservice p50/p99      : {result.quantiles[0]:.5f} / "
                  f"{result.quantiles[1]:.5f} (n={result.n:,}, "
                  f"eps={result.error_bound:.3f})")
            # Batched reads: many requests ride ONE MULTI_QUERY frame,
            # each with its own status (a missing key reports an error
            # without failing its neighbours)...
            p50s = client.query_many(
                [(f"{tenant}/latency", [0.5]) for tenant in ("acme", "globex")]
            )
            print(f"batched p50s         : acme={p50s[0].quantiles[0]:.5f}, "
                  f"globex={p50s[1].quantiles[0]:.5f}")
            # ... and query_stream pipelines thousands of uniform requests
            # as vectorized frames — the read-side ingest_stream (the
            # server answers each frame with one batched searchsorted
            # over the key's version-stamped query index).
            import numpy as np
            points = np.tile([0.5, 0.99], (2_000, 1))
            burst = client.query_stream("acme/latency", points, window=8)
            print(f"query_stream         : {burst.values.shape[0]:,} requests, "
                  f"retained={burst.num_retained}")
            # MERGE ships an edge-built sketch's FRQ1 payload for server-
            # side union — the distributed pattern over the service
            # protocol.
            client.merge("acme/latency", fast)
            print(f"after MERGE          : n={client.query('acme/latency', [0.5]).n:,}")
            stats = client.stats()
            print(f"server stats         : {stats['keys']} keys, "
                  f"{stats['ingested_values']:,} values ingested")


if __name__ == "__main__":
    main()

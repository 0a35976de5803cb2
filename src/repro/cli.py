"""Command-line interface.

Subcommands::

    repro-quantiles list                       # list experiments
    repro-quantiles run E1 [--scale default]   # run one experiment
    repro-quantiles report [--out FILE]        # run all, emit markdown
    repro-quantiles sketch FILE [--q 0.5 ...]  # sketch a numbers file
    repro-quantiles sketch FILE --shards 8     # ... through the sharded plane
    repro-quantiles bounds --eps 0.01 --n 1e9  # print the space-bound table
    repro-quantiles serve --data-dir ./qdata   # run the quantile service
    repro-quantiles serve --node-id a          # ... as a named cluster node
    repro-quantiles serve --window-resolutions 1s,1m  # windowed rings per key
    repro-quantiles query KEY --q 0.5 0.99     # query a running service
    repro-quantiles query KEY --last 5m        # merge-on-query time horizon
    repro-quantiles query K1 K2 --rank 1.5     # ranks, many keys, one frame
    repro-quantiles ingest KEY FILE            # stream a numbers file in
    repro-quantiles watch KEY --q 0.5 0.99     # follow closed window buckets
    repro-quantiles cluster-status ring.json   # per-node health of a cluster
    repro-quantiles cluster-status ring.json --key lat --repair
    repro-quantiles cluster-reshard ring.json --add d=127.0.0.1:7403
    repro-quantiles cluster-reshard ring.json --remove b
    repro-quantiles version                    # print the package version

(Installed as ``repro-quantiles``; also runnable as ``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.core import ReqSketch
from repro.errors import ReproError
from repro.fast import FastReqSketch
from repro.evaluation import Table
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.run_all import render_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-quantiles",
        description="Relative Error Streaming Quantiles (PODS 2021) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and their paper claims")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id, e.g. E1")
    run_parser.add_argument("--scale", default="default", choices=("smoke", "default", "full"))

    report_parser = sub.add_parser("report", help="run all experiments, emit markdown")
    report_parser.add_argument("--scale", default="default", choices=("smoke", "default", "full"))
    report_parser.add_argument("--out", default=None)

    sketch_parser = sub.add_parser("sketch", help="sketch a whitespace-separated numbers file")
    sketch_parser.add_argument("file", help="path, or '-' for stdin")
    sketch_parser.add_argument("--k", type=int, default=32, help="section size (even)")
    sketch_parser.add_argument("--hra", action="store_true", help="high-rank-accuracy mode")
    sketch_parser.add_argument(
        "--q",
        type=float,
        nargs="*",
        default=[0.5, 0.9, 0.99, 0.999],
        help="quantile fractions to report",
    )
    sketch_parser.add_argument("--seed", type=int, default=0)
    sketch_parser.add_argument(
        "--engine",
        default="fast",
        choices=("fast", "reference"),
        help="fast = numpy/C-accelerated float64 engine (default); "
        "reference = pure-Python generic engine",
    )
    sketch_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="ingest through N parallel shards and query their merge_many "
        "union (fast engine only; accuracy is unchanged by Theorem 3)",
    )
    sketch_parser.add_argument(
        "--backend",
        default="local",
        choices=("local", "process"),
        help="shard backend: local = same-process shards; process = a "
        "worker pool shipping wire-format partial sketches (needs --shards > 1)",
    )

    bounds_parser = sub.add_parser("bounds", help="print the Section 1.1 space-bound table")
    bounds_parser.add_argument("--eps", type=float, default=0.01)
    bounds_parser.add_argument("--n", type=float, default=1e9)
    bounds_parser.add_argument("--delta", type=float, default=0.05)
    bounds_parser.add_argument("--universe", type=float, default=2**64)

    serve_parser = sub.add_parser(
        "serve", help="run the asyncio quantile service (multi-tenant keyed store)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7379)
    serve_parser.add_argument(
        "--data-dir",
        default=None,
        help="durability root (WAL + snapshots); omit for a pure in-memory service",
    )
    serve_parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        help="retained-item cap across resident sketches; past it the server "
        "flushes, then spills: keys with the largest staging blocks are "
        "compacted and checkpointed in place, and only then are LRU keys "
        "spilled to the snapshot files (requires --data-dir)",
    )
    serve_parser.add_argument("--k", type=int, default=32, help="section size (even)")
    serve_parser.add_argument("--hra", action="store_true", help="high-rank-accuracy mode")
    serve_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base RNG seed; per-key seeds derive from it, making WAL replay "
        "bit-exact (pass a negative value for fresh randomness)",
    )
    serve_parser.add_argument(
        "--snapshot-interval",
        type=float,
        default=30.0,
        help="seconds between periodic checkpoints (0 disables)",
    )
    serve_parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync WAL commits and snapshots (power-loss durability; the "
        "WAL group-commits, so one fsync covers each commit batch)",
    )
    serve_parser.add_argument(
        "--no-uvloop",
        action="store_true",
        help="stick to the stock asyncio event loop even when uvloop is "
        "installed (uvloop is auto-detected and silently skipped when absent)",
    )
    serve_parser.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="refuse connections past this count with RETRY_LATER "
        "(default: unlimited)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a SIGTERM graceful drain waits for in-flight acks "
        "to flush before closing connections",
    )
    serve_parser.add_argument(
        "--node-id",
        default=None,
        help="this node's identity in a cluster topology; echoed in the "
        "READY line, HEALTH and STATS so operators and the cluster "
        "client can tell replicas apart",
    )
    serve_parser.add_argument(
        "--window-resolutions",
        default="60",
        metavar="DURATIONS",
        help="comma-separated bucket widths for the windowed quantile "
        "plane (e.g. '1s,1m,1h'; bare numbers are seconds); every key "
        "gets one time-bucketed sketch ring per resolution",
    )
    serve_parser.add_argument(
        "--window-retention",
        type=int,
        default=64,
        help="buckets retained per ring (TTL = retention x resolution); "
        "older buckets expire and leave the horizon",
    )
    serve_parser.add_argument(
        "--window-lateness",
        default="0",
        metavar="DURATION",
        help="out-of-order tolerance: values timestamped earlier than "
        "(batch watermark - lateness) are dropped as late (default 0)",
    )
    serve_parser.add_argument(
        "--scrub-interval",
        type=float,
        default=300.0,
        help="seconds between background integrity scrub passes over "
        "retained snapshots and the WAL; corrupt files are quarantined "
        "under data_dir/quarantine (0 disables; needs --data-dir)",
    )
    serve_parser.add_argument(
        "--min-free-bytes",
        type=int,
        default=8 << 20,
        help="free-space floor for leaving read-only degraded mode after "
        "an ENOSPC (default 8 MiB)",
    )

    status_parser = sub.add_parser(
        "cluster-status",
        help="per-node health and per-key replica agreement of a cluster",
    )
    status_parser.add_argument(
        "topology", help="cluster topology JSON file (see repro.cluster.ClusterMap)"
    )
    status_parser.add_argument(
        "--key",
        action="append",
        default=None,
        metavar="KEY",
        help="also report per-replica n for this key (repeatable); "
        "disagreement means a replica needs repair",
    )
    status_parser.add_argument(
        "--repair",
        action="store_true",
        help="run an anti-entropy repair pass over the given --key keys",
    )
    status_parser.add_argument(
        "--digest",
        action="store_true",
        help="with --repair: deep-check replicas whose n agree by "
        "comparing FRQ1 payload digests (catches silent divergence "
        "that equal counts hide; costs one FETCH per replica per key)",
    )
    status_parser.add_argument("--timeout", type=float, default=3.0)

    reshard_parser = sub.add_parser(
        "cluster-reshard",
        help="live topology change: add or remove a node while writes keep "
        "flowing, with zero acked-write loss",
    )
    reshard_parser.add_argument(
        "topology",
        help="cluster topology JSON file; rewritten to the new map on success",
    )
    reshard_group = reshard_parser.add_mutually_exclusive_group(required=True)
    reshard_group.add_argument(
        "--add",
        metavar="NODE",
        help="node to add, as node-id=host:port (start it with "
        "'serve --node-id' first so it can receive pushed state)",
    )
    reshard_group.add_argument(
        "--remove", metavar="NODE-ID", help="node id to decommission"
    )
    reshard_parser.add_argument(
        "--plan",
        action="store_true",
        help="print the per-key moves without touching any state",
    )
    reshard_parser.add_argument("--timeout", type=float, default=3.0)

    query_parser = sub.add_parser("query", help="query a running quantile service")
    query_parser.add_argument(
        "keys",
        nargs="*",
        default=[],
        help="tenant/metric keys (several ride one MULTI_QUERY frame; "
        "omit with --stats)",
    )
    query_parser.add_argument("--host", default="127.0.0.1")
    query_parser.add_argument("--port", type=int, default=7379)
    query_parser.add_argument(
        "--q",
        type=float,
        nargs="*",
        default=[0.5, 0.9, 0.99, 0.999],
        help="quantile fractions to report",
    )
    query_parser.add_argument(
        "--rank",
        type=float,
        nargs="*",
        default=None,
        metavar="VALUE",
        help="report estimated ranks of these values instead of quantiles",
    )
    query_parser.add_argument(
        "--last",
        default=None,
        metavar="DURATION",
        help="answer from the windowed plane: merge every bucket in the "
        "trailing DURATION (e.g. '5m', '1h30m') instead of the key's "
        "lifetime sketch",
    )
    query_parser.add_argument(
        "--resolution",
        default="0",
        metavar="DURATION",
        help="with --last: which ring to answer from ('0' = finest)",
    )
    query_parser.add_argument(
        "--stats",
        action="store_true",
        help="print server (or per-key) stats JSON instead of quantiles",
    )
    query_parser.add_argument(
        "--snapshot", action="store_true", help="force a checkpoint before anything else"
    )
    _add_retry_arguments(query_parser)

    ingest_parser = sub.add_parser(
        "ingest", help="stream a whitespace-separated numbers file into a key"
    )
    ingest_parser.add_argument("key", help="tenant/metric key")
    ingest_parser.add_argument("file", help="path, or '-' for stdin")
    ingest_parser.add_argument("--host", default="127.0.0.1")
    ingest_parser.add_argument("--port", type=int, default=7379)
    _add_retry_arguments(ingest_parser)

    watch_parser = sub.add_parser(
        "watch", help="follow a key's closed window buckets as a live stream"
    )
    watch_parser.add_argument("key", help="tenant/metric key")
    watch_parser.add_argument("--host", default="127.0.0.1")
    watch_parser.add_argument("--port", type=int, default=7379)
    watch_parser.add_argument(
        "--q",
        type=float,
        nargs="*",
        default=[0.5, 0.99],
        help="quantile fractions reported per closed bucket",
    )
    watch_parser.add_argument(
        "--resolution",
        default="0",
        metavar="DURATION",
        help="which ring to watch ('0' = finest)",
    )
    watch_parser.add_argument(
        "--resume-from",
        type=int,
        default=0,
        metavar="INDEX",
        help="replay retained closed buckets from this bucket index before "
        "going live (a previous watch prints the index to resume from)",
    )
    _add_retry_arguments(watch_parser)

    sub.add_parser("version", help="print the package version")
    return parser


def _parse_resolution_list(text: str):
    """'1s,1m,1h' (bare numbers = seconds) -> tuple of widths in seconds."""
    from repro.windowed import parse_duration

    tokens = [token.strip() for token in text.split(",") if token.strip()]
    return tuple(parse_duration(token) for token in tokens)


def _parse_optional_duration(text: str) -> float:
    """A duration that may be '0' (parse_duration itself rejects zero)."""
    from repro.windowed import parse_duration

    stripped = text.strip()
    if stripped in ("0", "0s", "0ms"):
        return 0.0
    return parse_duration(stripped)


def _add_retry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-operation socket timeout in seconds",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="reconnect-and-retry attempts on transport errors or "
        "RETRY_LATER overload answers; ingest retries negotiate an "
        "exactly-once session so a replayed frame is never double-counted "
        "(0 = fail fast)",
    )


def _client_retry(args):
    """The retry policy (or None) implied by --timeout/--retries."""
    from repro.service import RetryPolicy

    if args.retries <= 0:
        return None
    return RetryPolicy(timeout=args.timeout, retries=args.retries)


def _cmd_list() -> int:
    table = Table("Experiments", ["id", "title", "paper claim"])
    for module in EXPERIMENTS.values():
        table.add_row(module.META.experiment_id, module.META.title, module.META.paper_claim)
    table.print()
    return 0


def _cmd_run(experiment: str, scale: str) -> int:
    for table in run_experiment(experiment, scale=scale):
        table.print()
    return 0


def _cmd_report(scale: str, out: Optional[str]) -> int:
    report = render_report(scale)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {out}")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_sketch(
    path: str,
    k: int,
    hra: bool,
    fractions: List[float],
    seed: int,
    engine: str = "fast",
    shards: int = 1,
    backend: str = "local",
) -> int:
    from repro.errors import InvalidParameterError

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    values = [float(token) for token in text.split()]
    if not values:
        print("no numbers found", file=sys.stderr)
        return 1
    if backend != "local" and shards <= 1:
        raise InvalidParameterError(
            "--backend process does nothing without --shards > 1"
        )
    if shards > 1:
        if engine != "fast":
            raise InvalidParameterError(
                "--shards requires the fast engine (the sharded plane ships "
                "FRQ1 wire payloads of FastReqSketch)"
            )
        from repro.shard import ShardedReqSketch

        with ShardedReqSketch(
            shards, k=k, hra=hra, seed=seed, backend=backend
        ) as sharded:
            sharded.update_many(values)
            sketch = sharded.collect()
        label = f"engine=fast, shards={shards}/{backend}"
    else:
        if engine == "fast":
            sketch = FastReqSketch(k, hra=hra, seed=seed)
        else:
            sketch = ReqSketch(k, hra=hra, seed=seed)
        sketch.update_many(values)
        label = f"engine={engine}"
    table = Table(
        f"quantiles of {path} (n={sketch.n}, retained={sketch.num_retained}, "
        f"{'HRA' if hra else 'LRA'}, k={k}, {label})",
        ["fraction", "quantile", "rank_lower", "rank_upper"],
    )
    for q in fractions:
        value = sketch.quantile(q)
        lower, upper = sketch.rank_bounds(value)
        table.add_row(q, value, lower, upper)
    table.print()
    return 0


def _cmd_bounds(eps: float, n: float, delta: float, universe: float) -> int:
    from repro.theory import (
        cormode05_items,
        gk_items,
        kll_items,
        lower_bound_deterministic_items,
        lower_bound_randomized_items,
        mrl_items,
        req_theorem1_items,
        req_theorem2_items,
        zhang2006_items,
        zhang_wang_items,
    )

    table = Table(
        f"asymptotic items at eps={eps}, n={n:g}, delta={delta} (unit constants)",
        ["algorithm", "guarantee", "items"],
    )
    table.add_row("REQ (Thm 1)", "relative, randomized", req_theorem1_items(eps, n, delta))
    table.add_row("REQ (Thm 2)", "relative, randomized", req_theorem2_items(eps, n, delta))
    table.add_row("Zhang et al. [22]", "relative, randomized", zhang2006_items(eps, n))
    table.add_row("Zhang-Wang [21]", "relative, deterministic", zhang_wang_items(eps, n))
    table.add_row("Cormode+ [5]", "relative, needs universe", cormode05_items(eps, n, universe))
    table.add_row("GK [10]", "additive, deterministic", gk_items(eps, n))
    table.add_row("MRL [13]", "additive, deterministic", mrl_items(eps, n))
    table.add_row("KLL [12]", "additive, randomized", kll_items(eps, delta))
    table.add_row("lower bound (rand.)", "relative", lower_bound_randomized_items(eps, n))
    table.add_row(
        "lower bound (det., comparison)", "relative", lower_bound_deterministic_items(eps, n)
    )
    table.print()
    return 0


def _cmd_serve(args) -> int:
    from repro.service import run_server

    return run_server(
        args.data_dir,
        host=args.host,
        port=args.port,
        k=args.k,
        hra=args.hra,
        seed=None if args.seed < 0 else args.seed,
        memory_budget=args.memory_budget,
        snapshot_interval=args.snapshot_interval or None,
        fsync=args.fsync,
        use_uvloop=not args.no_uvloop,
        max_connections=args.max_connections,
        drain_timeout=args.drain_timeout,
        node_id=args.node_id,
        window_resolutions=_parse_resolution_list(args.window_resolutions),
        window_retention=args.window_retention,
        window_lateness=_parse_optional_duration(args.window_lateness),
        scrub_interval=args.scrub_interval or None,
        min_free_bytes=args.min_free_bytes,
    )


def _cmd_cluster_status(args) -> int:
    from repro.cluster import ClusterClient, ClusterMap, repair
    from repro.service import RetryPolicy

    cluster_map = ClusterMap.load(args.topology)
    retry = RetryPolicy(timeout=args.timeout, retries=1)
    exit_code = 0
    with ClusterClient(cluster_map, retry=retry) as client:
        table = Table(
            f"cluster topology v{cluster_map.version} "
            f"(R={cluster_map.replication}, vnodes={cluster_map.vnodes})",
            ["node", "address", "state", "topology", "connections", "wal_queue",
             "sessions", "win_keys", "subs", "hints", "disk_free", "scrubbed"],
        )
        health = client.health()
        # Queued-hint depth is a property of the writer client doing the
        # probing (hinted handoff is client-side); for this status pass
        # it reflects hints generated while probing/repairing just now.
        hints = client.hint_depths()
        for node_id, detail in health.items():
            node = cluster_map.node(node_id)
            if detail is None:
                table.add_row(node_id, node.address, "DOWN", "-", "-", "-", "-",
                              "-", "-", hints.get(node_id, 0), "-", "-")
                exit_code = 2
                continue
            version = detail.get("topology_version")
            state = detail.get("state", "?")
            if state == "degraded" and detail.get("degraded_reason"):
                # Surface WHY the node refuses writes right in the table.
                state = f"degraded ({detail['degraded_reason']})"
            free = detail.get("disk_free_bytes")
            scrub = detail.get("scrub") or {}
            table.add_row(
                node_id,
                node.address,
                state,
                "none" if version is None else f"v{version}",
                detail.get("open_connections", "?"),
                detail.get("wal_queue_depth", "?"),
                detail.get("sessions", "?"),
                detail.get("windowed_keys", "?"),
                detail.get("active_subscriptions", "?"),
                hints.get(node_id, 0),
                "-" if free is None else f"{free / (1 << 20):.0f}M",
                "-" if not scrub else
                f"{scrub.get('passes', 0)}x/{scrub.get('corrupt_found', 0)}bad",
            )
        table.print()
        for key in args.key or []:
            counts = client.key_counts(key)
            agree = len({n for n in counts.values() if n is not None}) <= 1
            placement = ", ".join(
                f"{node_id}={'unreachable' if n is None else n}"
                for node_id, n in counts.items()
            )
            verdict = "consistent" if agree else "DIVERGED"
            print(f"key {key!r}: {placement} — {verdict}")
            if not agree:
                exit_code = 2
        if args.repair:
            if not args.key:
                print("error: --repair needs at least one --key", file=sys.stderr)
                return 2
            report = repair(client, args.key, digest=args.digest)
            print(
                f"repair: examined={report.examined} consistent={report.consistent} "
                f"healed={report.healed} unhealed={report.unhealed} "
                f"skipped_down={report.skipped_down}"
                + (" [digest-checked]" if args.digest else "")
            )
            for entry in report.keys:
                if entry.unhealed:
                    nodes = ", ".join(sorted(entry.unhealed))
                    print(
                        f"  key {entry.key!r}: divergent on {nodes} "
                        "(no exact heal; see cluster-status docs)"
                    )
            if report.clean:
                exit_code = 0
        elif args.digest:
            print("error: --digest needs --repair", file=sys.stderr)
            return 2
    return exit_code


def _cmd_cluster_reshard(args) -> int:
    from repro.cluster import ClusterMap, Rebalancer
    from repro.service import RetryPolicy

    old_map = ClusterMap.load(args.topology)
    if args.add is not None:
        node_id, sep, address = args.add.partition("=")
        host, colon, port = address.rpartition(":")
        if not sep or not colon or not node_id or not host:
            print(
                f"error: --add wants node-id=host:port, got {args.add!r}",
                file=sys.stderr,
            )
            return 2
        new_map = old_map.add_node((node_id, host, int(port)))
    else:
        new_map = old_map.without_node(args.remove)
    retry = RetryPolicy(timeout=args.timeout, retries=1)
    with Rebalancer(old_map, new_map, retry=retry) as rebalancer:
        if args.plan:
            moves = rebalancer.plan()
            for move in moves:
                print(
                    f"key {move.key!r}: {move.source} -> "
                    f"{', '.join(move.destinations)}"
                    + (f" (freezing {', '.join(move.frozen)})" if move.frozen else "")
                )
            print(
                f"plan: {len(moves)} keys would move for topology "
                f"v{old_map.version} -> v{new_map.version} (nothing executed)"
            )
            return 0
        report = rebalancer.execute()
    # Only a committed cutover rewrites the operator's topology file —
    # a failed run leaves both the file and the cluster on the old map.
    new_map.save(args.topology)
    print(report.summary())
    for move in report.moves:
        print(f"  moved {move.key!r}: {move.source} -> {', '.join(move.destinations)}")
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.errors import InvalidParameterError, ServiceError
    from repro.service import QuantileClient

    if not args.keys and not args.stats:
        raise InvalidParameterError("pass a key to query, or --stats for server stats")
    kind = "quantiles" if args.rank is None else "ranks"
    points = args.q if args.rank is None else args.rank
    columns = ["fraction", "quantile"] if args.rank is None else ["value", "rank"]
    with QuantileClient(
        args.host, args.port, timeout=args.timeout, retry=_client_retry(args)
    ) as client:
        if args.snapshot:
            written = client.snapshot()
            print(f"checkpointed {written} keys")
        if args.stats:
            print(json.dumps(client.stats(args.keys[0] if args.keys else None),
                             indent=2, sort_keys=True))
            return 0
        if args.last is not None:
            # Windowed horizon reads: one WINDOW_QUERY per key (merge of
            # every retained bucket overlapping the trailing window).
            resolution = _parse_optional_duration(args.resolution)
            failed = False
            for key in args.keys:
                try:
                    result = client.query_horizon(
                        key, points, last=args.last, kind=kind, resolution=resolution
                    )
                except ServiceError as exc:
                    print(f"error: {key!r}: {exc}", file=sys.stderr)
                    failed = True
                    continue
                table = Table(
                    f"{kind} of {key!r} over the last {args.last} "
                    f"(n={result.n:,}, eps={result.error_bound:.4f}, "
                    f"retained={result.num_retained})",
                    columns,
                )
                for point, value in zip(points, result.quantiles):
                    table.add_row(point, float(value))
                table.print()
            return 2 if failed else 0
        # All keys ride one MULTI_QUERY frame; a missing key reports its
        # error but never fails its neighbours (per-request statuses).
        results = client.query_many([(key, kind, points) for key in args.keys])
        failed = False
        for key, result in zip(args.keys, results):
            if isinstance(result, ServiceError):
                print(f"error: {key!r}: {result}", file=sys.stderr)
                failed = True
                continue
            table = Table(
                f"{kind} of {key!r} at {args.host}:{args.port} "
                f"(n={result.n:,}, eps={result.error_bound:.4f}, "
                f"retained={result.num_retained})",
                columns,
            )
            for point, value in zip(points, result.quantiles):
                table.add_row(point, float(value))
            table.print()
    return 2 if failed else 0


def _cmd_ingest(args) -> int:
    from repro.service import QuantileClient

    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    values = [float(token) for token in text.split()]
    if not values:
        print("no numbers found", file=sys.stderr)
        return 1
    with QuantileClient(
        args.host, args.port, timeout=args.timeout, retry=_client_retry(args)
    ) as client:
        total = client.ingest_stream(args.key, values)
        guarantee = "exactly-once" if client.exactly_once else "at-most-once"
        print(f"ingested {len(values):,} values into {args.key!r} "
              f"(key total n={total:,}, {guarantee})")
    return 0


def _cmd_watch(args) -> int:
    from repro.service import QuantileClient

    resolution = _parse_optional_duration(args.resolution)
    with QuantileClient(
        args.host, args.port, timeout=args.timeout, retry=_client_retry(args)
    ) as client:
        print(
            f"watching {args.key!r} at {args.host}:{args.port} "
            f"(fractions {args.q}; ctrl-c to stop)",
            flush=True,
        )
        try:
            for event in client.subscribe(
                args.key, args.q, resolution=resolution, resume_from=args.resume_from
            ):
                values = " ".join(
                    f"q{frac:g}={float(value):.6g}"
                    for frac, value in zip(args.q, event.values)
                )
                print(
                    f"bucket {event.index} [{event.start:.3f}, {event.end:.3f}) "
                    f"n={event.n} eps={event.error_bound:.4f} {values}",
                    flush=True,
                )
        except KeyboardInterrupt:
            pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "version":
            print(f"repro-quantiles {__version__}")
            return 0
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "cluster-status":
            return _cmd_cluster_status(args)
        if args.command == "cluster-reshard":
            return _cmd_cluster_reshard(args)
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args.experiment, args.scale)
        if args.command == "report":
            return _cmd_report(args.scale, args.out)
        if args.command == "sketch":
            return _cmd_sketch(
                args.file,
                args.k,
                args.hra,
                args.q,
                args.seed,
                args.engine,
                args.shards,
                args.backend,
            )
        if args.command == "bounds":
            return _cmd_bounds(args.eps, args.n, args.delta, args.universe)
    except ConnectionRefusedError:
        host = getattr(args, "host", "127.0.0.1")
        port = getattr(args, "port", None)
        where = f"{host}:{port}" if port else host
        print(
            f"error: could not connect to the quantile service at {where} — "
            f"is it running? (start one with: repro-quantiles serve)",
            file=sys.stderr,
        )
        return 2
    except (ReproError, OSError) as exc:
        # OSError covers the service commands' other transport failures:
        # connection reset, EADDRINUSE from serve, DNS errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

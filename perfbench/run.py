"""Production-shaped benchmark of the quantile service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark starts the real server
(``python -m repro.cli serve --port 0 --data-dir <fresh dir> --hra``) as a
subprocess and drives one seeded, fixed-work workload through the public
``QuantileClient`` over loopback: one process, one connection, a
``RetryPolicy`` so every write takes the exactly-once path, closed loop.
The generator and the server share one CPU, and every time is reported in
reference seconds of that CPU (see ``clock.py``).

``--trace 0`` prints the end-to-end metrics: set-up time (median of
``SETUP_STARTS`` server starts), ingest and read throughput and latency,
recovery time after SIGKILL, the server's peak RSS and the mean rank error
of the probe answers.  The unscaled wall-clock figures are printed beside
them as comments.

``--trace 1`` prints the per-layer metrics: the same socket run with the
server's ``STATS`` taken before and after, then two in-process replays of
the same ops through every layer but the socket (see ``layers.py``), one
untraced and one traced.  Self times, the server front's included, come
from the traced replay; the tracing overhead is the traced replay time
minus the untraced one.  The self times are checked against the socket
run's call time, which no span covers whole: the output says whether they
agree within the overhead.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the run writes stays under
``.perfbench_work/`` in the checkout; the raw spans of a traced run are
kept there as ``spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

from clock import Clock, pin_to_one_cpu  # noqa: E402
from layers import Tracer, replay  # noqa: E402
from server import ServerProcess  # noqa: E402
from workloads import (  # noqa: E402
    QUANTILES,
    STREAM_FRAME_VALUES,
    STREAM_WINDOW,
    WORKLOADS,
    READ_OPS,
    WRITE_OPS,
    op_requests,
    op_values,
)

SETUP_STARTS = 5
RECOVERIES = 7
#: Throughput is the median of the rates of this many consecutive blocks
#: of ops, so a short stall of a shared machine moves one block, not the
#: result.
BLOCKS = 10
#: A latency tail is the highest of these percentiles with at least
#: ``TAIL_SAMPLES`` samples beyond it.
TAILS = (0.999, 0.99, 0.9)
TAIL_SAMPLES = 10

#: (name, unit) of every end-to-end metric (``--trace 0``).
END_TO_END = [
    ("setup_s", "s"),
    ("ingest_values_per_s", "1/s"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_tail_ms", "ms"),
    ("read_requests_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("recover_s", "s"),
    ("server_peak_rss_mb", "MiB"),
    ("rank_rel_err_mean", "ratio"),
]

#: End-to-end metrics also reported unscaled, in wall time.
WALL = [
    ("ingest_values_per_s", "1/s"),
    ("ingest_ack_p50_ms", "ms"),
    ("read_requests_per_s", "1/s"),
    ("read_p50_ms", "ms"),
]

#: Server opcodes whose counts are reported per layer.
OP_COUNTS = ("seq_multi_ingest", "seq_ingest", "multi_query", "seq_window_ingest", "window_query")

#: (name, unit) of every per-layer metric (``--trace 1``).
PER_LAYER = [
    ("fast.update_many_self_s", "s"),
    ("fast.values_per_s", "1/s"),
    ("fast.query_self_s", "s"),
    ("fast.query_index_rebuilds", "count"),
    ("fast.merge_many_self_s", "s"),
    ("store.update_many_self_s", "s"),
    ("store.query_self_s", "s"),
    ("store.spill_count", "count"),
    ("store.load_count", "count"),
    ("store.retained_items", "count"),
    ("store.query_index_hit_ratio", "ratio"),
    ("persistence.wal_self_s", "s"),
    ("persistence.snapshot_self_s", "s"),
    ("persistence.commit_count", "count"),
    ("persistence.mean_commit_batch", "count"),
    ("persistence.mean_commit_ms", "ms"),
    ("persistence.wal_bytes_per_value", "B"),
    ("persistence.replay_s", "s"),
    ("service.ingest_self_s", "s"),
    ("service.query_self_s", "s"),
    ("windowed.ingest_self_s", "s"),
    ("windowed.query_self_s", "s"),
    ("windowed.buckets", "count"),
    ("windowed.expired_buckets", "count"),
    ("windowed.late_dropped", "count"),
    ("windowed.retained_items", "count"),
    ("protocol.encode_s", "s"),
    ("protocol.decode_s", "s"),
    ("protocol.bytes_per_value", "B"),
    ("protocol.bytes_per_request", "B"),
    ("server.front_self_s", "s"),
    *[(f"server.op_counts.{op}", "count") for op in OP_COUNTS],
    ("server.shed_count", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.e2e_call_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
    # The socket run's figures in wall time, unscaled, and the scaling
    # itself: a gain that shows only in reference seconds is a clock effect.
    *[(f"wall.{name}", unit) for name, unit in WALL],
    ("clock.speed", "ratio"),
    ("clock.dropped_probe_frac", "ratio"),
]


def latency_ms(samples, max_tail: float = TAILS[0]) -> tuple:
    """``(p50, tail, tail fraction)`` of op durations, in milliseconds.

    The tail is the highest of ``TAILS`` up to ``max_tail`` with
    ``TAIL_SAMPLES`` samples beyond it (the p50 stands in when there are too
    few samples)."""
    ordered = sorted(samples)
    fraction = next(
        (
            q for q in TAILS
            if q <= max_tail and (1.0 - q) * len(ordered) >= TAIL_SAMPLES - 1e-9
        ),
        0.5,
    )
    return 1e3 * statistics.median(ordered), 1e3 * _percentile(ordered, fraction), fraction


def block_rate(samples) -> float:
    """Median over ``BLOCKS`` consecutive blocks of ``sum(units) / sum(seconds)``."""
    size = len(samples) / BLOCKS
    rates = []
    for block in range(min(BLOCKS, len(samples))):
        chunk = samples[int(block * size) : int((block + 1) * size)] or samples[-1:]
        rates.append(sum(units for _s, units in chunk) / sum(s for s, _units in chunk))
    return statistics.median(rates)


def _percentile(ordered, fraction: float) -> float:
    position = fraction * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def start(server, clock: Clock) -> None:
    """Start ``server`` and have ``clock`` watch it from then on."""
    server.start()
    clock.server_pid = server.proc.pid


def traffic(session, samples_of):
    """Rates, p50s and tails of a run's timed ops, and a note on the
    samples; ``samples_of`` turns ``(start, seconds, units)`` samples into
    ``(seconds, units)``."""
    writes, reads = samples_of(session.writes), samples_of(session.reads)
    ingest_p50, ingest_tail, ingest_q = latency_ms([s for s, _ in writes])
    read_p50, read_tail, read_q = latency_ms(
        [s for s, _ in reads], session.workload.max_read_tail
    )
    metrics = {
        "ingest_values_per_s": block_rate(writes),
        "ingest_ack_p50_ms": ingest_p50,
        "ingest_ack_tail_ms": ingest_tail,
        "read_requests_per_s": block_rate(reads),
        "read_p50_ms": read_p50,
        "read_tail_ms": read_tail,
    }
    notes = [
        f"ingest acks: {len(writes)} samples, tail = p{100 * ingest_q:.4g}",
        f"reads: {len(reads)} samples, tail = p{100 * read_q:.4g}"
        + session.workload.read_note,
    ]
    return metrics, notes


def wall(samples):
    return [(s, units) for _start, s, units in samples]


class Session:
    """The generator's side of one run: one client, closed loop, counted."""

    def __init__(self, server, workload, clock: Clock) -> None:
        from repro.service import QuantileClient, RetryPolicy

        self.client = QuantileClient(
            "127.0.0.1", server.port, retry=RetryPolicy(timeout=60.0, retries=3, seed=0)
        )
        if not self.client.exactly_once:
            raise RuntimeError("the server refused the exactly-once session")
        self.workload = workload
        self.clock = clock
        self.ops = 0
        self.failed_ops = 0
        #: ``(start, seconds, values)`` per timed ingest op and
        #: ``(start, seconds, requests)`` per timed read op, wall clock.
        self.writes = []
        self.reads = []
        #: ``(STATS, values ingested)`` right before the checkpoint, which
        #: truncates the WAL.
        self.at_checkpoint = None

    def call(self, op):
        client = self.client
        kind = op[0]
        if kind == "multi":
            return client.ingest_multi(op[1])
        if kind == "stream":
            return client.ingest_stream(
                op[1], op[2], frame_values=STREAM_FRAME_VALUES, window=STREAM_WINDOW
            )
        if kind == "query":
            return client.query_many(op[1])
        if kind == "window":
            return client.ingest_windowed(op[1], op[2], op[3])
        if kind == "horizon":
            return client.query_horizon(op[1], QUANTILES, start=op[2], end=op[3])
        self.at_checkpoint = (client.stats(), sum(units for _start, _s, units in self.writes))
        return client.snapshot()

    def scaled(self, samples):
        """``(reference seconds, units)`` of timed samples."""
        return [(self.clock.scaled(start, s), units) for start, s, units in samples]

    def apply(self, ops, oracle, *, timed: bool, final: bool = False) -> None:
        from repro.errors import ServiceError

        for op in ops:
            self.ops += 1
            # Between ops: the probe takes off any CPU time the server
            # still uses after the last ack (see clock.py).
            self.clock.tick()
            began = time.perf_counter()
            try:
                result = self.call(op)
            except ServiceError as exc:
                self.failed_ops += 1
                print(f"# op {op[0]} failed: {exc}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - began
            if timed:
                if op[0] in WRITE_OPS:
                    self.writes.append((began, elapsed, op_values(op)))
                elif op[0] in READ_OPS:
                    self.reads.append((began, elapsed, op_requests(op)))
            oracle.observe(op, result, final=final)

    def drive(self, oracle) -> None:
        for index in range(self.workload.steps):
            self.apply(self.workload.step(index), oracle, timed=True)

    def close(self) -> None:
        self.client.close()


def _run_socket(workload, run_dir: Path, clock: Clock, *, starts: int):
    """Start the server ``starts`` times (the last one serves the run),
    populate, drive the steps, check the probes.  Returns the live server,
    the session and the set-up samples; the caller stops the server."""
    setups = []
    server = session = None
    try:
        for attempt in range(starts):
            if server is not None:
                session.close()
                server.stop()
            server = ServerProcess(SRC, run_dir / f"data{attempt}", workload.options, run_dir)

            def connect():
                start(server, clock)
                return Session(server, workload, clock)

            session, seconds = clock.timed(connect)
            setups.append(seconds)
        oracle = workload.oracle()
        session.apply(workload.populate(), oracle, timed=False)
        before = session.client.stats()
        session.drive(oracle)
        after = session.client.stats()
        scored = len(oracle.rel_errors)
        oracle.prepare()
        session.apply(workload.final_probe(oracle), oracle, timed=False, final=True)
        session.apply(workload.probe_reads(oracle), oracle, timed=True, final=True)
        # The accuracy metric covers the fixed probe set: the in-run checks
        # weight the few keys read inline by how often they are read.
        oracle.probe_errors = oracle.rel_errors[scored:]
    except BaseException:
        if session is not None:
            session.close()
        if server is not None:
            server.stop()
        raise
    return server, session, oracle, setups, before, after


def measure(workload, run_dir: Path, clock: Clock):
    server, session, oracle, setups, _before, _after = _run_socket(
        workload, run_dir, clock, starts=SETUP_STARTS
    )
    try:
        rss = server.peak_rss_mb()
        session.close()
        server.stop()
        # Recovery writes to the data dir (spills, healed WAL tail), so every
        # restart begins from a copy of the state the crash left behind.
        crashed = run_dir / "crashed"
        shutil.copytree(server.data_dir, crashed)
        recovers = []
        for _ in range(RECOVERIES):
            server.stop()
            shutil.rmtree(server.data_dir)
            shutil.copytree(crashed, server.data_dir)
            # Write the copy back first, so the start does not share the
            # disk with its writeback.
            os.sync()
            recovers.append(clock.timed(lambda: start(server, clock))[1])
        # Every acknowledged value must survive the crash: the probes are
        # checked again, exact counts included, on the recovered server.
        recovered = Session(server, workload, clock)
        recovered.apply(workload.final_probe(oracle), oracle, timed=False, final=True)
        recovered.close()
    finally:
        session.close()
        server.stop()
    metrics, traffic_notes = traffic(session, session.scaled)
    unscaled, _ = traffic(session, wall)
    errors = oracle.probe_errors
    metrics.update({
        "setup_s": statistics.median(setups),
        "recover_s": statistics.median(recovers),
        "server_peak_rss_mb": rss,
        "rank_rel_err_mean": statistics.fmean(errors) if errors else 0.0,
    })
    notes = [
        *traffic_notes,
        f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}",
        f"recover samples (s): {', '.join(f'{s:.3f}' for s in recovers)}",
        f"rank error over {len(errors)} probe answers",
        *clock_notes(clock),
        "wall time, unscaled: " + ", ".join(
            f"{name} {unscaled[name]:.6g} {unit}" for name, unit in WALL
        ),
    ]
    ops = session.ops + recovered.ops
    return metrics, notes, oracle, ops, session.failed_ops + recovered.failed_ops


def clock_notes(clock: Clock) -> list:
    kept = len(clock.probe_s)
    return [
        f"CPU speed: median probe {clock.speed():.3f}x the reference; {kept} probes kept, "
        f"{clock.dropped} dropped (the server or another thread ran through half of them); "
        f"{1e6 * clock.others_s / max(1, kept):.1f} us per kept probe taken off for the "
        "CPU time they used beside it"
    ]


def _delta(after: dict, before: dict, *path) -> float:
    for name in path:
        after, before = after.get(name, {}), before.get(name, {})
    return float((after or 0) - (before or 0))


def trace(workload, run_dir: Path, spans_path: Path, clock: Clock):
    server, session, oracle, _setups, before, after = _run_socket(
        workload, run_dir, clock, starts=1
    )
    session.close()
    server.stop()
    call_s = sum(s for s, _ in session.scaled(session.writes + session.reads))
    unscaled, _ = traffic(session, wall)
    at_checkpoint, values = session.at_checkpoint
    reads = workload.probe_reads(oracle)
    probe = workload.final_probe(oracle) if reads else []
    plain = replay(workload, run_dir / "replay-plain", clock, probe, reads)
    tracer = Tracer()
    traced = replay(workload, run_dir / "replay-traced", clock, probe, reads, tracer)
    tracer.write(spans_path)

    # Self times are wall time of the traced replay; scale them by its CPU speed.
    metrics = {name: s * traced["scale"] for name, s in tracer.self_seconds().items()}
    metrics["trace.self_sum_s"] = sum(metrics.values())
    metrics["trace.e2e_call_s"] = call_s
    metrics["trace.overhead_s"] = traced["ops_s"] - plain["ops_s"]
    update_s = metrics["fast.update_many_self_s"]
    metrics["fast.values_per_s"] = tracer.values / update_s if update_s else 0.0
    for name, _unit in WALL:
        metrics[f"wall.{name}"] = unscaled[name]
    metrics["clock.speed"] = clock.speed()
    metrics["clock.dropped_probe_frac"] = clock.dropped / (len(clock.probe_s) + clock.dropped)

    hits = _delta(after, before, "query_index", "hits")
    misses = _delta(after, before, "query_index", "misses")
    commits = _delta(after, before, "group_commit", "commit_count")
    gc_after, gc_before = after.get("group_commit", {}), before.get("group_commit", {})
    commit_ms = (
        gc_after.get("mean_commit_ms", 0) * gc_after.get("commit_count", 0)
        - gc_before.get("mean_commit_ms", 0) * gc_before.get("commit_count", 0)
    )
    metrics.update({
        "fast.query_index_rebuilds": _delta(after, before, "query_index", "rebuilds"),
        "store.spill_count": _delta(after, before, "spill_count"),
        "store.load_count": _delta(after, before, "load_count"),
        "store.retained_items": float(after["retained_items"]),
        "store.query_index_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "persistence.commit_count": commits,
        "persistence.mean_commit_batch": (
            _delta(after, before, "group_commit", "committed_records") / commits
            if commits else 0.0
        ),
        "persistence.mean_commit_ms": commit_ms / commits if commits else 0.0,
        "persistence.wal_bytes_per_value": _delta(at_checkpoint, before, "wal_bytes") / values,
        "persistence.replay_s": plain["replay_s"],
        "protocol.bytes_per_value": plain["bytes_per_value"],
        "protocol.bytes_per_request": plain["bytes_per_request"],
        "server.shed_count": _delta(after, before, "shed_count"),
        "windowed.buckets": float(after["windowed"]["buckets"]),
        "windowed.expired_buckets": _delta(after, before, "windowed", "expired_buckets"),
        "windowed.late_dropped": _delta(after, before, "windowed", "late_dropped"),
        "windowed.retained_items": float(after["windowed"]["retained_items"]),
    })
    for op in OP_COUNTS:
        metrics[f"server.op_counts.{op}"] = _delta(after, before, "op_counts", op)
    gap = metrics["trace.self_sum_s"] - call_s
    overhead = metrics["trace.overhead_s"]
    notes = [
        f"socket call time {call_s:.3f}s; in-process replay {plain['ops_s']:.3f}s untraced, "
        f"{traced['ops_s']:.3f}s traced (reference seconds)",
        f"self times sum to {metrics['trace.self_sum_s']:.3f}s against an e2e call time of "
        f"{call_s:.3f}s: off by {gap:+.3f}s, tracing overhead {overhead:.3f}s, so they "
        + ("agree within the overhead" if abs(gap) <= overhead else
           "do NOT agree within the overhead (the socket, kernel and event loop are "
           "not replayed)"),
        *clock_notes(clock),
        f"spans: {len(tracer.raw)} of {tracer.counts[0]} written to {spans_path.name}",
    ]
    return metrics, notes, oracle, session.ops, session.failed_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still unwinds, so every ``finally`` reaps its server.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    # The native staging buffer's compiler and every temp file stay inside
    # the checkout.
    os.environ["TMPDIR"] = str(run_dir)
    try:
        # Build the engine's native staging buffer (first run in a
        # checkout) before any server starts, so no start pays for it.
        import repro.fast

        if SRC not in Path(repro.fast.__file__).resolve().parents:
            raise RuntimeError(f"repro was imported from outside {SRC}")

        cpu = pin_to_one_cpu()
        workload = WORKLOADS[args.workload](args.seed, args.seconds)
        with Clock() as clock:
            if args.trace:
                spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
                metrics, notes, oracle, ops, failed_ops = trace(workload, run_dir, spans, clock)
                catalogue = PER_LAYER
            else:
                metrics, notes, oracle, ops, failed_ops = measure(workload, run_dir, clock)
                catalogue = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = ops + oracle.answers
    failed = failed_ops + oracle.violations
    print(f"# workload {workload.name}: seed {args.seed}, {workload.steps} steps, "
          f"closed loop over 1 connection, generator and server on CPU {cpu}")
    for note in notes:
        print(f"# {note}")
    print(f"# probe answers checked: {oracle.answers}, worst error/bound "
          f"{oracle.worst_ratio:.3f}")
    print(f"# failed_op_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for name, unit in catalogue:
        print(f"{name:<34} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

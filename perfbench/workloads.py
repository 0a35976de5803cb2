"""The three seeded, fixed-work workloads and their accuracy oracle.

Every workload is a list of *ops* built here from ``--seed`` alone; the
server only ever sees the generated frames.  An op is a tuple whose first
element names the client call that ships it:

* ``("multi", groups)`` — ``ingest_multi`` of ``[(key, values), ...]``
* ``("stream", key, values)`` — ``ingest_stream`` (8k-value frames, window 8)
* ``("query", requests)`` — ``query_many`` of ``[(key, kind, points), ...]``
* ``("window", key, timestamps, values)`` — ``ingest_windowed``
* ``("horizon", key, start, end)`` — ``query_horizon`` over ``[start, end)``
* ``("checkpoint",)`` — ``snapshot``, once, ``CHECKPOINT_AT`` of the way through

The amount of work is fixed by ``--seconds`` (``steps = seconds * rate``,
with the rate measured on a 2-core x86 box), never by a clock, so two runs
of the same seed do identical work: run time varies, the work does not.
All workloads are closed loop over one connection: the next op is sent
only after the previous one is acknowledged.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

#: Every read asks these fractions (the dashboard shape).
QUANTILES = (0.5, 0.9, 0.99, 0.999)

#: Ops whose values count as ingest, and ops whose requests count as reads.
WRITE_OPS = ("multi", "stream", "window")
READ_OPS = ("query", "horizon")

#: Share of the steps after which the generator asks for a checkpoint.
#: Late, so that recovery replays a short WAL tail without spilling: a
#: fan-in recovery that crossed the memory budget re-spilled ~7k keys and
#: took 5-10 s, most of the spread disk waits.
CHECKPOINT_AT = 0.94

#: ``ingest_stream`` shape of the dashboard writer.
STREAM_FRAME_VALUES = 8192
STREAM_WINDOW = 8


def op_values(op) -> int:
    """Values an ingest op carries."""
    if op[0] == "multi":
        return sum(int(values.size) for _key, values in op[1])
    if op[0] == "stream":
        return int(op[2].size)
    return int(op[3].size)


def op_requests(op) -> int:
    """Read requests a read op carries."""
    return len(op[1]) if op[0] == "query" else 1


class Workload:
    """Base: a seeded op source plus the server options it runs under."""

    name = ""
    #: Service options; the server gets them as CLI flags, the in-process
    #: replay as ``QuantileService`` keyword arguments.
    options: Dict[str, object] = {}
    #: Steps per second of ``--seconds``.
    rate = 1.0
    #: The highest percentile a read tail may be reported at.
    max_read_tail = 0.999
    #: What the output says about the timed reads.
    read_note = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = int(seed)
        self.steps = max(2, int(round(seconds * self.rate)))

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def populate(self) -> List[tuple]:
        """Untimed ops that build the starting state."""
        return []

    def step(self, index: int) -> List[tuple]:
        """The ops of step ``index``.  Near the end the server is asked for a
        checkpoint, as its periodic one would (``serve`` takes one every
        30 s by default), so a crash at the end leaves snapshots plus a short
        WAL tail to recover from."""
        ops = self._step(index)
        return [("checkpoint",), *ops] if index == int(CHECKPOINT_AT * self.steps) else ops

    def _step(self, index: int) -> List[tuple]:
        raise NotImplementedError

    def oracle(self) -> "Oracle":
        raise NotImplementedError

    def final_probe(self, oracle: "Oracle") -> List[tuple]:
        """Read ops that check every probe key at the end of the run."""
        keys = [key for key in oracle.keys if oracle.count(key)]
        return [("query", [(key, "quantiles", QUANTILES) for key in keys])]

    def probe_reads(self, oracle: "Oracle") -> List[tuple]:
        """Read ops timed after the final probe, for a workload with no
        reads of its own."""
        return []


class FaninManyKeys(Workload):
    """A metrics agent: one ``ingest_multi`` frame of ~16k Zipf-keyed events
    per step, and no reads while it ingests.

    The agent's own traffic has no reads, but every end-to-end metric needs
    a value on every workload, so the read metrics here time the accuracy
    probe after the last frame: one single-key ``query_many`` per probe key,
    in ``PROBE_PASSES`` passes over the probe set.  The first pass (the final
    probe) rebuilds each key's query index and is not timed; the later ones
    hit the index.
    The number of passes is chosen for a steady figure, not taken from an
    agent: one pass (~70 ms of reads) caught the machine in one state, and
    its figures spread by 0.3 across runs.  The read tail is reported at
    p90 at most: the p99 of ~4k like reads is set by a few dozen
    interruptions, and spread by 0.28 across runs whether or not the cold
    pass was timed.
    """

    name = "fanin_many_keys"
    KEYS = 10_000
    EVENTS = 16_384
    ZIPF = 1.1
    #: Zipf ranks kept exactly by the oracle: the head and a tail sample.
    PROBES = (*range(256), 2000, 4000, 6000, 8000, 9999)
    PROBE_PASSES = 16
    max_read_tail = 0.9
    rate = 10.0
    read_note = (
        " (the accuracy probe after the last frame: one key per read, 16 passes, "
        "the first one untimed)"
    )

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        # Retained items grow by ~8k per frame (tail keys keep every value)
        # almost independently of the seed, and the checkpoint compacts them:
        # 797k just before it, 630k after, 668k at the end of 100 steps.  The
        # budget is crossed ~88% into the run, so the tail spills and
        # reloads for the six frames before the checkpoint, and neither the
        # rest of the run nor the recovery spills.  Crossed at 80%, the
        # spill/reload thrash halved throughput.
        self.options = {"memory_budget": 7_560 * self.steps}
        self.keys = [f"fleet/host{i:05d}/rpc_ms" for i in range(self.KEYS)]
        weights = np.arange(1, self.KEYS + 1, dtype=np.float64) ** -self.ZIPF
        self.weights = weights / weights.sum()
        self.probe_keys = [self.keys[i] for i in self.PROBES]

    def _step(self, index: int) -> List[tuple]:
        rng = self.rng(1, index)
        ids = rng.choice(self.KEYS, size=self.EVENTS, p=self.weights)
        values = rng.lognormal(3.0, 1.0, self.EVENTS)
        order = np.argsort(ids, kind="stable")
        ids, values = ids[order], values[order]
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(ids)) + 1, [ids.size]))
        groups = [
            (self.keys[ids[lo]], values[lo:hi])
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ]
        return [("multi", groups)]

    def oracle(self) -> "Oracle":
        return Oracle(self.probe_keys, ())

    def final_probe(self, oracle: "Oracle") -> List[tuple]:
        keys = [key for key in oracle.keys if oracle.count(key)]
        return [("query", [(key, "quantiles", QUANTILES)]) for key in keys]

    def probe_reads(self, oracle: "Oracle") -> List[tuple]:
        return self.final_probe(oracle) * (self.PROBE_PASSES - 1)


class StreamDashboard(Workload):
    """Writes beside reads: one 64k-value chunk streamed into one of 16 hot
    keys per cycle, then dashboard frames over all 256 keys."""

    name = "stream_dashboard"
    KEYS = 256
    HOT = 16
    PREPOPULATE = 4096
    CHUNK = 65_536
    READS_PER_CYCLE = 4
    #: Two hot keys and every cold key are kept exactly; four of them
    #: are checked on every dashboard read.
    PROBES = (0, 1, *range(HOT, KEYS))
    INLINE = (0, 1, 100, 200)
    rate = 18.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.keys = [f"dash/svc{i:03d}/latency_ms" for i in range(self.KEYS)]
        self.mu = self.rng(0).uniform(1.0, 5.0, self.KEYS)
        self.requests = [(key, "quantiles", QUANTILES) for key in self.keys]
        self.probe_keys = [self.keys[i] for i in self.PROBES]

    def populate(self) -> List[tuple]:
        rng = self.rng(2)
        ops = []
        for lo in range(0, self.KEYS, 16):
            ops.append((
                "multi",
                [
                    (self.keys[i], rng.lognormal(self.mu[i], 0.8, self.PREPOPULATE))
                    for i in range(lo, lo + 16)
                ],
            ))
        return ops

    def _step(self, index: int) -> List[tuple]:
        hot = index % self.HOT
        chunk = self.rng(3, index).lognormal(self.mu[hot], 0.8, self.CHUNK)
        return [("stream", self.keys[hot], chunk)] + [
            ("query", self.requests) for _ in range(self.READS_PER_CYCLE)
        ]

    def oracle(self) -> "Oracle":
        return Oracle(self.probe_keys, [self.keys[i] for i in self.INLINE])


class WindowedRollover(Workload):
    """128 keys on 1s/1m rings: event time advances 1s per step, every key
    ships 1024 timestamped values inside the step's second but ~1% past the
    lateness bound, and trailing 30s horizons are read back.

    Each step carries 128k values in 1024-value batches: 512 keys with
    256-value batches carry the same values in 4x the round trips, and
    per-call overhead then dominated the workload.
    """

    name = "windowed_rollover"
    KEYS = 128
    BATCH = 1024
    EPOCH = 1_700_000_000.0
    RETENTION = 32
    LATENESS = 2.0
    HORIZON = 30
    #: Trailing horizons of the final probe: three answers per key and
    #: quantile steady the accuracy metric across seeds.
    PROBE_HORIZONS = (30, 15, 5)
    READS_PER_STEP = 12
    #: Share of values that arrive past the lateness bound.
    LATE_SHARE = 0.01
    rate = 7.5
    options = {
        "window_resolutions": (1.0, 60.0),
        "window_retention": RETENTION,
        "window_lateness": LATENESS,
    }

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.keys = [f"edge/pop{i:03d}/ttfb_ms" for i in range(self.KEYS)]
        self.mu = self.rng(0).uniform(2.0, 4.0, self.KEYS)
        self.probe_keys = self.keys  # every key's finest ring is modelled

    def _step(self, index: int) -> List[tuple]:
        rng = self.rng(4, index)
        now = self.EPOCH + index
        shape = (self.KEYS, self.BATCH)
        ts = now + rng.random(shape)
        late = rng.random(shape) < self.LATE_SHARE
        ts[late] = now - self.LATENESS - 1.0 - 3.0 * rng.random(int(late.sum()))
        values = rng.lognormal(self.mu[:, None], 0.7, shape)
        ops = [("window", key, ts[i], values[i]) for i, key in enumerate(self.keys)]
        end = now + 1.0
        for r in range(self.READS_PER_STEP):
            key = self.keys[(index * self.READS_PER_STEP + r) % self.KEYS]
            ops.append(("horizon", key, end - self.HORIZON, end))
        return ops

    def oracle(self) -> "Oracle":
        return WindowOracle(self.probe_keys, self.RETENTION, self.LATENESS)

    def final_probe(self, oracle: "Oracle") -> List[tuple]:
        end = self.EPOCH + self.steps
        return [
            ("horizon", key, end - horizon, end)
            for horizon in self.PROBE_HORIZONS
            for key in oracle.keys
        ]


WORKLOADS = {cls.name: cls for cls in (FaninManyKeys, StreamDashboard, WindowedRollover)}


class Oracle:
    """Exact values of the probe keys, checked against the server's answers.

    Every ack that names a probe key must report the exact count.  Quantile
    answers for the ``inline`` keys are checked on every read of the run;
    the final probe checks every probe key.  An answer must land within the
    error bound it carries, read in the high-rank-accuracy sense the server
    runs in: the rank error at target rank ``t`` may be at most
    ``eps * (n - t + 1)``, plus one rank of discretisation.
    """

    def __init__(self, keys, inline) -> None:
        self.keys = list(keys)
        self.inline = set(inline)
        self._chunks: Dict[str, List[np.ndarray]] = {key: [] for key in self.keys}
        self._sorted: Dict[str, np.ndarray] = {key: np.empty(0) for key in self.keys}
        self.answers = 0
        self.violations = 0
        #: HRA-relative rank error of every checked quantile answer, and of
        #: the final probe's answers alone (the accuracy metric).
        self.rel_errors: List[float] = []
        self.probe_errors: List[float] = []
        #: Worst ``rank error / allowed error`` seen (1.0 = on the bound).
        self.worst_ratio = 0.0

    def count(self, key: str) -> int:
        return int(self._sorted[key].size) + sum(int(c.size) for c in self._chunks[key])

    def exact(self, key: str) -> np.ndarray:
        chunks = self._chunks[key]
        if chunks:
            merged = np.concatenate([self._sorted[key], *chunks])
            merged.sort(kind="stable")  # timsort: linear on sorted runs
            self._sorted[key] = merged
            chunks.clear()
        return self._sorted[key]

    def prepare(self) -> None:
        """Sort every probe key's exact values now, so that checking the
        final probe's answers is light work between its reads."""
        for key in self.keys:
            self.exact(key)

    def _expect_count(self, reported: int, expected: int) -> None:
        self.answers += 1
        if int(reported) != expected:
            self.violations += 1

    def observe(self, op, result, *, final: bool = False) -> None:
        """Fold one acknowledged op into the model and check its answer."""
        kind = op[0]
        if kind == "multi":
            for key, values in op[1]:
                if key in self._chunks:
                    self._chunks[key].append(np.array(values))
                    self._expect_count(result[key], self.count(key))
        elif kind == "stream":
            if op[1] in self._chunks:
                self._chunks[op[1]].append(np.array(op[2]))
                self._expect_count(result, self.count(op[1]))
        elif kind == "query":
            for (key, _kind, points), answer in zip(op[1], result):
                if isinstance(answer, Exception):
                    self.answers += 1
                    self.violations += 1
                elif key in self.inline or (final and key in self._chunks):
                    self.check(answer, points, self.exact(key))

    def check(self, answer, fractions, exact: np.ndarray) -> None:
        """Check one quantile answer (a ``QueryResult``) against ``exact``."""
        n = int(exact.size)
        self._expect_count(answer.n, n)
        eps = float(answer.error_bound)
        for q, value in zip(fractions, answer.quantiles):
            self.answers += 1
            target = max(1, math.ceil(q * n))
            lo = int(np.searchsorted(exact, value, side="left")) + 1
            hi = int(np.searchsorted(exact, value, side="right"))
            if hi < lo:  # the answer is not a value that was ever ingested
                self.violations += 1
                continue
            error = lo - target if target < lo else max(0, target - hi)
            room = n - target + 1
            self.rel_errors.append(error / room)
            allowed = eps * room + 1
            self.worst_ratio = max(self.worst_ratio, error / allowed)
            if error > allowed:
                self.violations += 1


class WindowOracle(Oracle):
    """The probe keys' finest ring, modelled exactly.

    Mirrors ``WindowRing``'s admission rule: a value is admitted when it is
    no older than the *pre-batch* watermark minus the lateness and its
    1-second bucket is still inside the ring.
    """

    def __init__(self, keys, retention: int, lateness: float) -> None:
        super().__init__(keys, keys)
        self.retention = retention
        self.lateness = lateness
        self._watermark: Dict[str, Optional[float]] = {key: None for key in self.keys}
        self._ts: Dict[str, List[np.ndarray]] = {key: [] for key in self.keys}
        self._accepted = {key: 0 for key in self.keys}
        self._high = {key: None for key in self.keys}

    def count(self, key: str) -> int:
        return self._accepted[key]

    def prepare(self) -> None:
        """Nothing to sort ahead: each horizon is cut from the raw batches."""

    def observe(self, op, result, *, final: bool = False) -> None:
        if op[0] not in ("window", "horizon") or op[1] not in self._ts:
            return
        kind, key = op[0], op[1]
        if kind == "window":
            ts, values = op[2], op[3]
            indices = np.floor(ts).astype(np.int64)
            previous = self._watermark[key]
            high = int(indices.max())
            if previous is not None:
                high = max(high, int(math.floor(previous)))
                self._watermark[key] = max(previous, float(ts.max()))
            else:
                self._watermark[key] = float(ts.max())
            self._high[key] = high
            keep = indices >= high - self.retention + 1
            if previous is not None:
                keep &= ts >= previous - self.lateness
            self._ts[key].append(ts[keep].copy())
            self._chunks[key].append(values[keep].copy())
            # An admitted value is at most ``lateness`` behind its step, so
            # batches older than the ring (plus slack) can never be queried.
            del self._ts[key][: -(self.retention + 4)]
            del self._chunks[key][: -(self.retention + 4)]
            self._accepted[key] += int(keep.sum())
            self._expect_count(result, self._accepted[key])
        elif kind == "horizon":
            self.check(result, QUANTILES, self.horizon(key, op[2], op[3]))

    def horizon(self, key: str, start: float, end: float) -> np.ndarray:
        """Exact admitted values in the live buckets overlapping ``[start, end)``."""
        ts = np.concatenate(self._ts[key])
        values = np.concatenate(self._chunks[key])
        indices = np.floor(ts)
        live = self._high[key] - self.retention + 1
        mask = (indices >= max(math.floor(start), live)) & (indices < end)
        return np.sort(values[mask])

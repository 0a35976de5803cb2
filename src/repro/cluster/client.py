"""Cluster-aware clients: replicated writes, failover reads, handoff.

:class:`ClusterClient` (sync) and :class:`AsyncClusterClient` front a
fleet of quantile-service nodes through a :class:`~repro.cluster.ring.ClusterMap`:

* **Writes fan out to every replica** of the key (R distinct nodes on
  the ring).  Each node gets its own :class:`~repro.service.QuantileClient`
  with its own exactly-once session — per-replica sessions, because the
  server's dedup marks are per ``(session, key)`` and two replicas must
  never share a sequence-number space.  A write is acknowledged once at
  least one replica applied it durably (W=1: availability first; the
  paper's mergeability theorem means a lagging replica is *repairable*,
  not wrong).
* **A down replica gets hinted handoff.**  The exact encoded
  ``SEQ_INGEST`` body — session sequence number included — is buffered
  in a bounded :class:`~repro.cluster.handoff.HintQueue` and replayed
  verbatim when the node returns.  Replaying the identical frame through
  the identical session is what makes recovery exact: frames the
  replica applied before crashing are deduplicated by its high-water
  marks, frames it missed apply now, and the replica converges to the
  same per-key ``n`` as its peers.
* **Reads fail over.**  A read tries the key's replicas in ring order
  and moves to the next on timeout, transport failure, retry-budget
  exhaustion, ``RETRY_LATER`` (shedding/draining), or ``UNKNOWN_KEY``
  (a replica that missed the key entirely) — any single replica can
  answer, with the single-sketch error bound.
* **Down nodes are probed**, not hammered: after a failure the node is
  skipped until ``probe_interval`` elapses; the next operation touching
  it attempts one reconnect, replays pending hints first (ordering:
  hints carry older sequence numbers, and the server's high-water dedup
  requires per-key sequence order), then resumes live traffic.

One core, two drivers.  Every operation is written once, in
:class:`_ClusterCore`, as a generator that does no I/O (the shape of the
single-node :class:`~repro.service.client._ClientCore`): it yields
``(callable, *args)`` commands — a per-node client's method, the
driver's ``_node`` (open a node client) or ``_fan_out`` — and gets each
result sent (or its exception thrown) back in.  A driver supplies the
trampoline that runs the commands (its per-node client's own), per-node
client construction, and ``_fan_out``, the one step the drivers do
differently: it runs one write attempt's per-replica requests and
returns each one's result or exception — in ring order on
:class:`ClusterClient`, concurrently with ``asyncio.gather`` on
:class:`AsyncClusterClient` (write latency is then the slowest replica,
not the sum).  The fan-out rule is the same for both: every replica of
the attempt is tried and its outcome booked (ack, hint, or mark-down);
then, if a replica answered ``WRONG_TOPOLOGY``, the client adopts the
newer map and re-routes only the replicas not yet written.

The clients are single-operator objects (one thread / one task); they
hold one socket per node.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.handoff import DEFAULT_MAX_HINTS, DEFAULT_MAX_VALUES, Hint, HintQueue
from repro.cluster.ring import ClusterMap, ClusterNode
from repro.errors import (
    ClusterError,
    RetryBudgetExceededError,
    ServiceError,
    WrongTopologyError,
)
from repro.service import protocol as wire
from repro.service.client import (
    AsyncQuantileClient,
    QuantileClient,
    _decode_n,
    _new_session_id,
    _resolve_horizon,
)
from repro.service.resilience import RetryPolicy

__all__ = ["ClusterClient", "AsyncClusterClient"]

#: Failures that mean "this replica, this instant" — absorbed by
#: failover/handoff rather than surfaced (everything else is a real
#: error: bad request, incompatible merge, unknown key on writes, ...).
_REPLICA_ERRORS = (ConnectionError, OSError, RetryBudgetExceededError)

#: How many topology generations one operation will chase.  Each
#: ``WRONG_TOPOLOGY`` redirect carries the rejecting node's newer map;
#: adopting it and re-routing once per generation converges in a single
#: hop under a normal reshard — the bound only guards against a cluster
#: whose topology is churning faster than the client can follow.
_TOPOLOGY_ATTEMPTS = 3


def _is_failover_status(exc: ServiceError) -> bool:
    return getattr(exc, "status", None) == wire.STATUS_RETRY_LATER


class _Replica:
    """One node as seen by a cluster client: connection + handoff state.

    The exactly-once session belongs to the *replica slot*, not to any
    one connection: ``session_id`` is fixed for the client's lifetime
    and ``next_seq`` mirrors the highest sequence number ever reserved,
    so sequence numbers stay unique and monotonic across node restarts,
    reconnects, and offline periods (hints reserve their sequence
    numbers while the node is down).
    """

    __slots__ = ("node", "client", "session_id", "next_seq", "down_since", "next_probe", "hints", "failures", "acked")

    def __init__(self, node: ClusterNode, *, max_hints: int, max_values: int) -> None:
        self.node = node
        self.client = None
        self.session_id = _new_session_id()
        self.next_seq = 1
        self.down_since: Optional[float] = None
        self.next_probe = 0.0
        self.hints = HintQueue(max_hints=max_hints, max_values=max_values)
        self.failures = 0
        #: Whether this node ever durably acknowledged a sequenced frame
        #: of this session — the amnesia detector's memory: if it did,
        #: and a reconnect HELLO later reports a zero high-water mark,
        #: the node lost committed state (disk wipe), not just uptime.
        self.acked = False

    def note_amnesia(self) -> int:
        """Handle a reconnect that found the node with no memory of this
        session.  Returns the number of hints abandoned (0 = replay is
        still the exact path).

        Replay converges the node only when the queue holds the node's
        *entire* history for this session — i.e. it never acked anything
        (it was down from the first frame) and nothing was dropped.  In
        every other amnesia case (it acked then lost disk, or the queue
        overflowed) the buffered suffix would build a partial replica
        that exact repair cannot merge into, so the hints are abandoned
        and the anti-entropy pass copies the authority instead.
        """
        if not self.acked and self.hints.complete:
            return 0
        return self.hints.abandon()

    @property
    def live(self) -> bool:
        return self.client is not None

    def reserve_seq(self) -> int:
        """The next session sequence number (client counter authoritative
        while connected; the mirror keeps counting while down)."""
        if self.client is not None:
            seq = self.client._reserve_seq()
            self.next_seq = max(self.next_seq, seq + 1)
            return seq
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def sync_seq_from_client(self) -> None:
        if self.client is not None:
            self.next_seq = max(self.next_seq, self.client._next_seq)

    def stats(self) -> dict:
        return {
            "node_id": self.node.node_id,
            "address": self.node.address,
            "live": self.live,
            "down_since": self.down_since,
            "failures": self.failures,
            "session": self.session_id,
            "next_seq": self.next_seq,
            **self.hints.stats(),
        }


class _ClusterCore:
    """Every cluster-client operation, written once and free of I/O.

    Operations are generators yielding ``(callable, *args)`` commands: a
    live per-node client's method (a value on the sync driver, an
    awaitable on the async one), the driver's ``_node`` (open and
    connect a node client for a replica) or ``_fan_out`` (run a list of
    per-replica commands, returning each result or exception in order).
    A driver supplies those two and ``_run``, the trampoline.
    """

    def __init__(
        self,
        cluster_map,
        *,
        retry: Optional[RetryPolicy] = None,
        probe_interval: float = 0.5,
        max_hints: int = DEFAULT_MAX_HINTS,
        max_hint_values: int = DEFAULT_MAX_VALUES,
    ) -> None:
        if not isinstance(cluster_map, ClusterMap):
            cluster_map = ClusterMap.load(cluster_map)
        self.map = cluster_map
        self._retry = retry if retry is not None else RetryPolicy()
        self.probe_interval = probe_interval
        self._max_hints = max_hints
        self._max_hint_values = max_hint_values
        self._replicas: Dict[str, _Replica] = {
            node.node_id: _Replica(node, max_hints=max_hints, max_values=max_hint_values)
            for node in cluster_map.nodes
        }
        #: Keys written through this client — the default scope of an
        #: anti-entropy pass (:func:`repro.cluster.repair.repair`).
        self.keys_seen = set()
        self.write_acks = 0
        self.read_failovers = 0
        self.hinted_writes = 0
        self.nodes_marked_down = 0
        self.topology_refreshes = 0
        self._closed = False

    # -- client state (no I/O) -----------------------------------------

    def _replica(self, node: ClusterNode) -> _Replica:
        return self._replicas[node.node_id]

    def adopt_topology(self, map_json: str) -> bool:
        """Install a newer cluster map (from a ``WRONG_TOPOLOGY`` redirect).

        Returns ``True`` iff the map was adopted.  Replica slots for
        nodes present in both maps are **kept** — their exactly-once
        sessions, sequence counters, and queued hints survive the
        re-route, which is what lets a retried write deduplicate at a
        node that already applied it under the old map.  Slots for
        removed nodes are kept too (unrouted) so a map flip-back cannot
        reset their sequence space.
        """
        if not map_json:
            return False
        try:
            new_map = ClusterMap.from_json(map_json)
        except Exception:
            return False
        if new_map.version <= self.map.version:
            return False
        self.map = new_map
        for node in new_map.nodes:
            if node.node_id not in self._replicas:
                self._replicas[node.node_id] = _Replica(
                    node,
                    max_hints=self._max_hints,
                    max_values=self._max_hint_values,
                )
        self.topology_refreshes += 1
        return True

    def _push_hint(self, rep: _Replica, hint: Hint) -> None:
        rep.hints.push(hint)
        self.hinted_writes += 1

    def hint_depths(self) -> Dict[str, int]:
        """Queued-hint depth per node (this client's handoff backlog)."""
        return {rep.node.node_id: len(rep.hints) for rep in self._replicas.values()}

    def stats(self) -> dict:
        """Cluster-client view: topology + per-replica state + counters."""
        return {
            "topology_version": self.map.version,
            "replication": self.map.replication,
            "nodes": [rep.stats() for rep in self._replicas.values()],
            "keys_seen": len(self.keys_seen),
            "write_acks": self.write_acks,
            "read_failovers": self.read_failovers,
            "hinted_writes": self.hinted_writes,
            "nodes_marked_down": self.nodes_marked_down,
            "topology_refreshes": self.topology_refreshes,
        }

    # -- per-node connection management --------------------------------

    def _connect(self, rep: _Replica):
        client = yield (self._node, rep)
        # HELLO just ran: the client's counter now sits at the server's
        # high-water + 1, so a zero high-water reads back as 1 here.
        amnesia = client.exactly_once and client._next_seq == 1 and rep.next_seq > 1
        # Never hand out a sequence number below one reserved offline
        # (an unreplayed hint may still carry it).
        client._next_seq = max(client._next_seq, rep.next_seq)
        rep.client = client
        rep.next_seq = client._next_seq
        if amnesia:
            rep.note_amnesia()

    def _drop(self, rep: _Replica):
        """Close a replica's node client, keeping its sequence counter."""
        rep.sync_seq_from_client()
        client, rep.client = rep.client, None
        if client is not None:
            try:
                yield (client.close,)
            except Exception:
                pass

    def _mark_down(self, rep: _Replica):
        yield from self._drop(rep)
        now = time.monotonic()
        if rep.down_since is None:
            rep.down_since = now
            self.nodes_marked_down += 1
        rep.next_probe = now + self.probe_interval
        rep.failures += 1

    def _ensure_live(self, rep: _Replica, *, force: bool = False):
        """Connect (or probe-reconnect) a replica; replay hints first."""
        if rep.client is None:
            now = time.monotonic()
            if not force and rep.down_since is not None and now < rep.next_probe:
                return False
            try:
                yield from self._connect(rep)
            except _REPLICA_ERRORS:
                yield from self._mark_down(rep)
                return False
            except ServiceError as exc:
                # Refused at the door (draining, connection limit): down
                # until the next probe, like an unreachable node.
                if not _is_failover_status(exc):
                    raise
                yield from self._mark_down(rep)
                return False
        if len(rep.hints) and not (yield from self._replay_hints(rep)):
            return False
        rep.down_since = None
        return True

    def _replay_hints(self, rep: _Replica):
        """Ship every buffered hint, oldest first, before live traffic.

        Bodies are replayed verbatim — same session, same sequence
        numbers — so a frame the node applied before it went down
        deduplicates instead of double-counting.
        """
        for hint in rep.hints.drain():
            try:
                yield (rep.client._call, _decode_n, hint.body)
                rep.acked = True
            except _REPLICA_ERRORS:
                rep.hints.requeue(hint)
                yield from self._mark_down(rep)
                return False
            except WrongTopologyError as exc:
                # The node no longer owns this hint's key, so the frame
                # can never apply here.  Every acked copy of the write
                # moved with the migration bundle and the anti-entropy
                # pass restores redundancy at the new owners — drop the
                # hint rather than wedging the queue.
                self.adopt_topology(exc.map_json)
                continue
            except ServiceError as exc:
                if _is_failover_status(exc):
                    rep.hints.requeue(hint)
                    return False
                raise
        return True

    # -- writes --------------------------------------------------------

    def _write(self, plain: str, pack_seq, key: str, *args):
        """The replicated write behind :meth:`ingest` and
        :meth:`ingest_windowed`: ``pack_seq(seq, key, *args)`` encodes a
        replica's sequenced frame; ``plain`` names the node-client method
        used against a server without exactly-once."""
        count = len(args[-1])
        self.keys_seen.add(key)
        best_n = -1
        last_error: Optional[BaseException] = None
        # Nodes already written (acked or hinted) this operation: a
        # WRONG_TOPOLOGY re-route must not send them a second frame —
        # the retry carries a fresh sequence number, so a duplicate
        # would double-count instead of deduplicating.
        done = set()
        for attempt in range(_TOPOLOGY_ATTEMPTS):
            plan = []
            for node in self.map.replicas(key):
                if node.node_id in done:
                    continue
                rep = self._replica(node)
                if not (yield from self._ensure_live(rep)):
                    self._push_hint(rep, Hint(key, count, pack_seq(rep.reserve_seq(), key, *args)))
                    done.add(node.node_id)
                elif rep.client.exactly_once:
                    body = pack_seq(rep.reserve_seq(), key, *args)
                    plan.append((rep, body, (rep.client._call, _decode_n, body)))
                else:
                    # Old server without exactly-once: best effort, no
                    # safe replay — never hinted.
                    plan.append((rep, None, (getattr(rep.client, plain), key, *args)))
            results = yield (self._fan_out, [command for _rep, _body, command in plan])
            wrong = unexpected = None
            for (rep, body, _command), result in zip(plan, results):
                if not isinstance(result, BaseException):
                    best_n = max(best_n, result)
                    rep.acked = rep.acked or body is not None
                    done.add(rep.node.node_id)
                elif isinstance(result, WrongTopologyError):
                    wrong = last_error = result
                elif isinstance(result, _REPLICA_ERRORS) or (
                    body is not None and _is_failover_status(result)
                ):
                    # Down, or shedding past the retry budget: the frame
                    # was NOT applied — hint it.
                    if isinstance(result, _REPLICA_ERRORS):
                        yield from self._mark_down(rep)
                    if body is not None:
                        self._push_hint(rep, Hint(key, count, body))
                    done.add(rep.node.node_id)
                    last_error = result
                elif unexpected is None:
                    unexpected = result
            if unexpected is not None:
                raise unexpected
            if wrong is None:
                break
            # The rejecting node shipped the newer map in the error:
            # adopt it and re-route to the new owners.  The rejected
            # frame was not applied (that is what the status means),
            # and every pre-cutover ack moved with the migration
            # bundle, so the re-send cannot lose or double anything.
            if attempt < _TOPOLOGY_ATTEMPTS - 1 and self.adopt_topology(wrong.map_json):
                continue
            if best_n >= 0:
                # W=1 already satisfied; an unadoptable redirect from a
                # straggler replica does not unwind the ack.
                break
            raise wrong
        if best_n < 0:
            raise ClusterError(
                f"no live replica acknowledged {plain} of {count} values "
                f"for key {key!r} (replicas: "
                f"{[node.node_id for node in self.map.replicas(key)]})"
            ) from last_error
        self.write_acks += 1
        return best_n

    def _ingest_stream(self, key: str, values, frame_values: int):
        n = 0
        for start in range(0, len(values), frame_values):
            n = yield from self._write(
                "ingest", wire.pack_seq_ingest, key, values[start : start + frame_values]
            )
        return n

    def ingest(self, key: str, values):
        """Write one batch to every replica of ``key``.

        Live replicas get a sequenced exactly-once frame; down replicas
        get a hint.  Returns the highest replica ``n`` acknowledged.
        Raises :class:`~repro.errors.ClusterError` only when **no**
        replica acknowledged (the write is then not durable anywhere —
        hints buffered for it will still replay if a node returns, but
        the caller must treat the write as failed).
        """
        values = np.ascontiguousarray(values, dtype=wire.WIRE_DTYPE)
        return self._run(self._write("ingest", wire.pack_seq_ingest, key, values))

    def ingest_stream(self, key: str, values, *, frame_values: int = 8192):
        """Stream a large batch as ``frame_values``-sized replicated
        frames — the mid-stream-failure-safe shape: a node dying at
        frame k hints frames k.. while the live replicas keep acking."""
        values = np.ascontiguousarray(values, dtype=wire.WIRE_DTYPE)
        return self._run(self._ingest_stream(key, values, frame_values))

    def ingest_windowed(self, key: str, timestamps, values):
        """Replicated timestamped write into every replica's window rings.

        Same contract as :meth:`ingest` — sequenced exactly-once frames
        to live replicas, verbatim-frame hints for down ones (timestamps
        ride inside the hint body, so a replayed bucket lands exactly
        where it would have live) — and the same W=1 ack rule.
        """
        ts = np.ascontiguousarray(timestamps, dtype=wire.WIRE_DTYPE)
        values = np.ascontiguousarray(values, dtype=wire.WIRE_DTYPE)
        return self._run(
            self._write("ingest_windowed", wire.pack_seq_window_ingest, key, ts, values)
        )

    def _flush_hints(self, force: bool):
        pending: Dict[str, int] = {}
        # A list: a replay can adopt a map that adds replica slots.
        for rep in list(self._replicas.values()):
            if len(rep.hints):
                yield from self._ensure_live(rep, force=force)
            if len(rep.hints):
                pending[rep.node.node_id] = len(rep.hints)
        return pending

    def flush_hints(self, *, force: bool = True):
        """Try to revive every down node and replay its hints now.

        Returns ``{node_id: pending_hints_after}`` for nodes that still
        hold hints (empty dict = fully drained).
        """
        return self._run(self._flush_hints(force))

    # -- reads ---------------------------------------------------------

    def _read(self, key: str, op: str, *args, **kwargs):
        """Run node-client method ``op`` against the key's replicas with
        failover, chasing ``WRONG_TOPOLOGY`` redirects to the current
        owners."""
        for attempt in range(_TOPOLOGY_ATTEMPTS):
            try:
                return (yield from self._read_once(key, op, args, kwargs))
            except WrongTopologyError as exc:
                if attempt == _TOPOLOGY_ATTEMPTS - 1 or not self.adopt_topology(exc.map_json):
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _read_once(self, key: str, op: str, args, kwargs):
        """One failover pass over the key's replicas under the current map."""
        last_error: Optional[BaseException] = None
        unknown: Optional[ServiceError] = None
        for node in self.map.replicas(key):
            rep = self._replica(node)
            if not (yield from self._ensure_live(rep)):
                # Skipping a down replica is a failover too: whatever
                # answers will be a later replica in preference order.
                self.read_failovers += 1
                continue
            try:
                return (yield (partial(getattr(rep.client, op), **kwargs), key, *args))
            except _REPLICA_ERRORS as exc:
                yield from self._mark_down(rep)
                self.read_failovers += 1
                last_error = exc
            except ServiceError as exc:
                status = getattr(exc, "status", None)
                if status == wire.STATUS_RETRY_LATER:
                    self.read_failovers += 1
                    last_error = exc
                    continue
                if status == wire.STATUS_UNKNOWN_KEY:
                    # This replica missed the key (it was down for the
                    # key's whole life) — a peer may still have it.
                    unknown = exc
                    continue
                raise
        if unknown is not None and last_error is None:
            raise unknown
        raise ClusterError(
            f"every replica of key {key!r} failed the read "
            f"({[node.node_id for node in self.map.replicas(key)]})"
        ) from (last_error or unknown)

    def query(self, key: str, fractions: Sequence[float]):
        return self._run(self._read(key, "query", fractions))

    def quantile(self, key: str, q: float):
        return self._run(self._read(key, "quantile", q))

    def cdf(self, key: str, split_points: Sequence[float]):
        return self._run(self._read(key, "cdf", split_points))

    def rank(self, key: str, values: Sequence[float]):
        return self._run(self._read(key, "rank", values))

    def fetch(self, key: str):
        """``(n, FRQ1 payload)`` from the first replica that answers."""
        return self._run(self._read(key, "fetch"))

    def query_horizon(
        self,
        key: str,
        points: Sequence[float] = (0.5, 0.9, 0.99),
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
        last=None,
        kind: str = "quantiles",
        resolution: float = 0.0,
        now: Optional[float] = None,
    ):
        """Windowed horizon read with replica failover.

        A ``last=`` horizon is anchored **once** here, so every replica
        tried during failover answers the same wall-clock window.
        """
        lo, hi = _resolve_horizon(start, end, last, now)
        return self._run(self._read(
            key, "query_horizon", points,
            start=lo, end=hi, kind=kind, resolution=resolution,
        ))

    # -- cluster introspection -----------------------------------------

    def _key_counts(self, key: str):
        counts: Dict[str, Optional[int]] = {}
        for node in self.map.replicas(key):
            rep = self._replica(node)
            counts[node.node_id] = None
            if not (yield from self._ensure_live(rep, force=True)):
                continue
            try:
                counts[node.node_id] = int((yield (rep.client.stats, key))["n"])
            except _REPLICA_ERRORS:
                yield from self._mark_down(rep)
            except ServiceError as exc:
                if getattr(exc, "status", None) != wire.STATUS_UNKNOWN_KEY:
                    raise
                counts[node.node_id] = 0
        return counts

    def key_counts(self, key: str):
        """Per-replica ``n`` for ``key`` — the divergence detector.

        ``0`` for a replica that never saw the key, ``None`` for one
        that is unreachable right now.
        """
        return self._run(self._key_counts(key))

    def _health(self):
        out: Dict[str, Optional[dict]] = {}
        for rep in list(self._replicas.values()):
            out[rep.node.node_id] = None
            if not (yield from self._ensure_live(rep, force=True)):
                continue
            try:
                out[rep.node.node_id] = yield (rep.client.health,)
            except _REPLICA_ERRORS:
                yield from self._mark_down(rep)
        return out

    def health(self):
        """Per-node ``HEALTH`` detail (``None`` for unreachable nodes)."""
        return self._run(self._health())

    def _node_client(self, node_id: str):
        rep = self._replicas[node_id]
        yield from self._ensure_live(rep, force=True)
        return rep.client

    def node_client(self, node_id: str):
        """The live per-node client (repair uses this; ``None`` if down)."""
        return self._run(self._node_client(node_id))

    def _close(self):
        if self._closed:
            return
        self._closed = True
        for rep in self._replicas.values():
            yield from self._drop(rep)

    def close(self):
        """Close every node connection (idempotent)."""
        return self._run(self._close())


class ClusterClient(_ClusterCore):
    """Blocking cluster client: replicated writes, failover reads.

    Args:
        cluster_map: The topology (a :class:`~repro.cluster.ring.ClusterMap`,
            or a path to a topology JSON file).
        retry: Per-node retry policy (defaults to ``RetryPolicy()``).
            Required in spirit: exactly-once sessions — which hinted
            handoff depends on — are only negotiated with a policy.
        probe_interval: Seconds between reconnect probes at a down node.
        max_hints, max_hint_values: Bounds of each node's hint queue.

    Counters (observability): :attr:`write_acks`, :attr:`read_failovers`,
    :attr:`hinted_writes`, :attr:`nodes_marked_down`.
    """

    _run = staticmethod(QuantileClient._run)

    def _node(self, rep: _Replica) -> QuantileClient:
        return QuantileClient(
            rep.node.host, rep.node.port, retry=self._retry, session=rep.session_id
        )

    @staticmethod
    def _fan_out(commands):
        """Run each replica's write in ring order; collect results and
        exceptions alike so every replica is tried."""
        results = []
        for command in commands:
            try:
                results.append(command[0](*command[1:]))
            except Exception as exc:
                results.append(exc)
        return results

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncClusterClient(_ClusterCore):
    """Asyncio cluster client: the same operations and arguments as
    :class:`ClusterClient`, ``await``-ed, with the write fan-out awaited
    concurrently (latency is the *slowest* replica, not the sum).  Each
    replica's sequenced frame is built before the fan-out, so sequence
    reservation stays race-free; reads fail over in ring order."""

    _run = staticmethod(AsyncQuantileClient._drive)

    async def _node(self, rep: _Replica) -> AsyncQuantileClient:
        client = AsyncQuantileClient(
            rep.node.host, rep.node.port, retry=self._retry, session=rep.session_id
        )
        return await client.connect()

    @staticmethod
    async def _fan_out(commands):
        return await asyncio.gather(
            *(command[0](*command[1:]) for command in commands), return_exceptions=True
        )

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

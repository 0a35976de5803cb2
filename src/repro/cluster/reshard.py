"""Elastic resharding: live topology change with zero acked-write loss.

:class:`Rebalancer` moves a cluster from one :class:`~repro.cluster.ring.ClusterMap`
to the next while clients keep writing.  The paper's full-mergeability
theorem is what makes the data motion semantically free — a sketch's
FRQ1 payload installed verbatim at the new owner answers every query
exactly as the original would — so the whole problem reduces to
*when* state is captured relative to *which* writes were acknowledged:

1. **Plan.** Enumerate every key held by the old owners and diff the
   two maps into per-key moves: which nodes gain the key, which lose
   it, and which reachable holder streams the state (the one with the
   largest ``n`` — under the steady state the hint/repair machinery
   maintains, replicas are convergent up to down-node backlogs, so the
   largest replica is the most complete; run
   :func:`repro.cluster.repair.repair` first to close any wider gap).
2. **Transfer (writes still flowing).**  ``MIGRATE BEGIN`` on the
   streaming source captures the key's migration bundle — FRQ1 payload,
   per-``(session, key)`` high-water marks so exactly-once survives the
   move, and the windowed ring bundle — and opens the key's migration;
   writes keep applying and acking as usual, and nothing is copied
   aside.  The bundle is pushed to every gaining node (``MIGRATE_PUSH``,
   REPLACE semantics: a retried push is idempotent), so a gainer that is
   down or refuses the bundle fails the move before any write is shed.
3. **Cutover (bounded shed window).**  Every old owner of the key is
   frozen (``MIGRATE DRAIN freeze=1``): new writes and merges for the
   key are shed with ``RETRY_LATER`` and **never acknowledged** — the
   world is momentarily still.  The source is then recaptured with a
   second ``MIGRATE BEGIN`` — by full mergeability the fresh bundle is
   the whole key, every write the source ever acknowledged included,
   those applied during step 2 among them — and
   pushed to **every new owner**: the gainers, and the owners the key
   keeps (REPLACE makes the later push supersede the earlier one).
   Re-basing the continuing owners onto the same bundle is what makes
   the replica set *byte-identical* from here on: every new owner holds
   the same payload and derives the same per-key compaction coin
   stream, so identical future writes produce identical bytes.  A
   continuing owner whose frozen ``n`` disagrees with the source's is
   **not** replaced (REPLACE would discard writes only it acked — the
   one thing this module exists to never do); it keeps its state, the
   divergence is logged, and ``repair(digest=True)`` is the operator's
   detector for the aftermath.
4. **Flip.**  The new map is installed gainers-first, then the
   remaining nodes, losers last: by the time a loser starts redirecting
   clients with ``WRONG_TOPOLOGY``, every gainer already holds the
   state and accepts the re-routed writes.  ``MIGRATE COMMIT`` then
   releases the frozen keys.

Crash safety falls out of the freeze deadline: a frozen key thaws by
itself (:attr:`~repro.service.server.QuantileService.migration_freeze_timeout`)
when the coordinator stops heartbeating it, and a thawed source under
the *old* map is simply the authority it always was — an aborted
reshard loses coordination progress, never data.  A coordinator that
dies before the freeze leaves nothing that grows or refuses writes.
Re-running the rebalance is safe end to end (REPLACE pushes, idempotent
map install, idempotent commit).
"""

from __future__ import annotations

import logging
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.ring import ClusterMap, ClusterNode
from repro.errors import ClusterError, ServiceError
from repro.service.client import QuantileClient
from repro.service.resilience import RetryPolicy

log = logging.getLogger("repro.cluster.reshard")

__all__ = ["KeyMove", "ReshardReport", "Rebalancer"]


class KeyMove(NamedTuple):
    """One key's ownership change between two maps."""

    key: str
    #: Node that streams the migration bundle (largest reachable replica).
    source: str
    #: Nodes gaining the key — each receives the bundle via MIGRATE_PUSH.
    destinations: Tuple[str, ...]
    #: Old owners holding the key — every one is frozen through the
    #: cutover so no replica can ack a write after the final capture.
    frozen: Tuple[str, ...]


class ReshardReport(NamedTuple):
    """What a rebalance did (see :meth:`summary`)."""

    old_version: int
    new_version: int
    keys_examined: int
    moves: Tuple[KeyMove, ...]
    pushes: int
    committed: bool

    def summary(self) -> str:
        return (
            f"topology v{self.old_version} -> v{self.new_version}: "
            f"{self.keys_examined} keys examined, {len(self.moves)} moved "
            f"({self.pushes} pushes), "
            f"{'committed' if self.committed else 'NOT committed'}"
        )


class Rebalancer:
    """Coordinate one live topology change between two cluster maps.

    Args:
        old_map: The currently installed topology.
        new_map: The target topology; its ``version`` must be newer.
        retry: Per-node retry policy for the coordinator's connections.

    Per moving key: capture and push the bulk, freeze every old owner,
    recapture and push to every new owner; then flip the map and commit
    (the module docstring gives each step's reason).

    Single-operator object: one coordinator, one thread, no locks.
    Use :meth:`execute` for the whole dance or :meth:`plan` to preview
    the moves without touching any state.
    """

    def __init__(
        self,
        old_map: ClusterMap,
        new_map: ClusterMap,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if new_map.version <= old_map.version:
            raise ClusterError(
                f"target map v{new_map.version} is not newer than the "
                f"installed map v{old_map.version} — bump the version so "
                f"nodes and clients can order the change"
            )
        self.old_map = old_map
        self.new_map = new_map
        self._retry = retry if retry is not None else RetryPolicy()
        #: Every node either map knows about, by id (a decommissioned
        #: node lives only in the old map but still needs the new map
        #: installed so it redirects straggler clients).
        self._nodes: Dict[str, ClusterNode] = {
            node.node_id: node for node in (*old_map.nodes, *new_map.nodes)
        }
        self._clients: Dict[str, QuantileClient] = {}
        self._closed = False

    # -- connections ---------------------------------------------------

    def _client(self, node_id: str) -> QuantileClient:
        client = self._clients.get(node_id)
        if client is None:
            node = self._nodes[node_id]
            client = QuantileClient(node.host, node.port, retry=self._retry)
            self._clients[node_id] = client
        return client

    def _drop_client(self, node_id: str) -> None:
        client = self._clients.pop(node_id, None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def _try_keys(self, node_id: str) -> Optional[List[str]]:
        try:
            return self._client(node_id).migrate_keys()
        except (ConnectionError, OSError, ServiceError) as exc:
            log.warning("reshard: cannot enumerate keys on %s: %s", node_id, exc)
            self._drop_client(node_id)
            return None

    def _key_n(self, node_id: str, key: str) -> int:
        """Best-effort per-replica ``n`` used to rank candidate sources."""
        try:
            return int(self._client(node_id).stats(key)["n"])
        except (ConnectionError, OSError, ServiceError):
            return -1

    # -- planning ------------------------------------------------------

    def plan(self) -> List[KeyMove]:
        """Diff the maps into per-key moves.  Read-only."""
        holders: Dict[str, List[str]] = {}
        reachable = 0
        for node in self.old_map.nodes:
            keys = self._try_keys(node.node_id)
            if keys is None:
                continue
            reachable += 1
            for key in keys:
                holders.setdefault(key, []).append(node.node_id)
        if reachable == 0:
            raise ClusterError("reshard: no old-map node reachable to enumerate keys")
        moves: List[KeyMove] = []
        for key in sorted(holders):
            old_ids = {n.node_id for n in self.old_map.replicas(key)}
            new_ids = {n.node_id for n in self.new_map.replicas(key)}
            gainers = tuple(sorted(new_ids - old_ids))
            if not gainers:
                continue
            # A holder that isn't an owner under the old map is leftover
            # state from an earlier change — the ring never routes writes
            # to it, so it can't ack anything and needs no freeze.
            frozen = tuple(sorted(h for h in holders[key] if h in old_ids))
            candidates = [h for h in holders[key] if h in old_ids] or holders[key]
            source = max(candidates, key=lambda nid: self._key_n(nid, key))
            moves.append(KeyMove(key, source, gainers, frozen))
        return moves

    # -- execution -----------------------------------------------------

    def execute(self) -> ReshardReport:
        """Run the full transfer + cutover; returns the report.

        Raises :class:`~repro.errors.ClusterError` on failure, after
        best-effort aborting every migration it started — sources then
        thaw (immediately, or via the freeze deadline if unreachable)
        and remain authoritative under the old map.
        """
        moves = self.plan()
        pushes = 0
        begun: List[KeyMove] = []
        try:
            for move in moves:
                # Listed before the transfer: a push that fails after
                # BEGIN must still abort the key's migration.
                begun.append(move)
                pushes += self._transfer(move)
            self._cutover(moves)
        except Exception:
            self._abort(begun)
            raise
        return ReshardReport(
            old_version=self.old_map.version,
            new_version=self.new_map.version,
            keys_examined=len({m.key for m in moves}) if moves else 0,
            moves=tuple(moves),
            pushes=pushes,
            committed=True,
        )

    def _transfer(self, move: KeyMove) -> int:
        """Steps 2–3 for one key: bulk push, freeze, recapture; returns
        the number of pushes."""
        src = self._client(move.source)
        bundle = src.migrate_begin(move.key)
        pushes = 0
        for dest in move.destinations:
            self._client(dest).migrate_push(move.key, bundle)
            pushes += 1
        # Freeze every old owner — source included — so no replica can
        # ack a write after the final capture below.  Shed writes are
        # never acknowledged; clients retry them onto the new owners
        # once the map flips.
        for owner in move.frozen:
            if owner != move.source:
                # BEGIN creates the migration state freeze hangs off;
                # the captured bundle is not used (the source streams).
                self._client(owner).migrate_begin(move.key)
            self._client(owner).migrate_drain(move.key, freeze=True)
        final = src.migrate_begin(move.key)
        frozen_n = self._key_n(move.source, move.key)
        new_ids = {n.node_id for n in self.new_map.replicas(move.key)}
        for dest in move.destinations:
            self._client(dest).migrate_push(move.key, final)
            pushes += 1
        # Re-base the continuing owners onto the final bundle too, so
        # the whole new replica set is byte-identical (same payload,
        # same derived coin stream) — but only where the continuer's
        # frozen n matches the capture: REPLACE on a diverged replica
        # would discard writes only it acked.
        for owner in move.frozen:
            if owner == move.source or owner not in new_ids:
                continue
            owner_n = self._key_n(owner, move.key)
            if owner_n != frozen_n:
                log.warning(
                    "reshard: continuing owner %s of %r is at n=%d vs "
                    "source n=%d — left un-rebased; run repair(digest=True) "
                    "after hints replay", owner, move.key, owner_n, frozen_n,
                )
                continue
            self._client(owner).migrate_push(move.key, final)
            pushes += 1
        if move.source in new_ids:
            # The source keeps the key: its own post-capture state IS the
            # bundle (it was frozen), so no self-push is needed — but its
            # RNG stream must be re-derived like every other installer
            # or its next compaction diverges from the re-based peers.
            self._client(move.source).migrate_push(move.key, final)
            pushes += 1
        return pushes

    def _cutover(self, moves: List[KeyMove]) -> None:
        """Step 4: heartbeat freezes, install the map, release keys."""
        # Re-arm every freeze deadline immediately before the flip so
        # the install window starts from a full timeout budget.
        for move in moves:
            for loser in move.frozen:
                self._client(loser).migrate_drain(move.key, freeze=True)
        map_json = self.new_map.to_json()
        gainer_ids = {d for m in moves for d in m.destinations}
        loser_ids = {l for m in moves for l in m.frozen}
        ordered = sorted(
            self._nodes,
            key=lambda nid: (0 if nid in gainer_ids else 2 if nid in loser_ids else 1),
        )
        for node_id in ordered:
            try:
                self._client(node_id).set_topology(map_json)
            except (ConnectionError, OSError, ServiceError) as exc:
                if node_id in gainer_ids or node_id in loser_ids:
                    # A participant that can't learn the new map is a
                    # correctness problem: a gainer would reject its new
                    # keys, a loser would thaw and keep acking old ones.
                    raise ClusterError(
                        f"reshard: failed to install topology "
                        f"v{self.new_map.version} on {node_id}: {exc}"
                    ) from exc
                # A bystander only has a stale version number; its
                # per-key ownership is identical under both maps and
                # clients will hand it the new map on the next redirect.
                log.warning(
                    "reshard: could not install topology on bystander %s: %s",
                    node_id, exc,
                )
                self._drop_client(node_id)
        for move in moves:
            for loser in dict.fromkeys((move.source, *move.frozen)):
                try:
                    self._client(loser).migrate_commit(move.key)
                except (ConnectionError, OSError, ServiceError) as exc:
                    # The map is already flipped, so the node rejects the
                    # key's writes regardless; the leftover freeze just
                    # expires on its own.
                    log.warning(
                        "reshard: commit of %r on %s failed (freeze will "
                        "expire): %s", move.key, loser, exc,
                    )
                    self._drop_client(loser)

    def _abort(self, begun: List[KeyMove]) -> None:
        for move in begun:
            for node_id in dict.fromkeys((move.source, *move.frozen)):
                try:
                    self._client(node_id).migrate_abort(move.key)
                except Exception as exc:
                    log.warning(
                        "reshard: abort of %r on %s failed (freeze will "
                        "expire): %s", move.key, node_id, exc,
                    )
                    self._drop_client(node_id)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for node_id in list(self._clients):
            self._drop_client(node_id)

    def __enter__(self) -> "Rebalancer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

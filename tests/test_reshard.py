"""Elastic resharding: wire formats, migration surface, rebalancer,
topology-aware clients, and the cluster-reshard CLI.

The migration protocol's contract is exactness: an MB1 bundle installed
at the new owner answers every query as the original replica would
(full mergeability — merging into nothing is a copy), the per-session
high-water marks ride along so exactly-once dedup survives the move,
and REPLACE semantics make every push idempotent.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterClient,
    ClusterMap,
    Hint,
    HintQueue,
    KeyMove,
    Rebalancer,
    repair,
)
from repro.errors import (
    ClusterError,
    RetryBudgetExceededError,
    ServiceError,
    WrongTopologyError,
)
from repro.fast import FastReqSketch
from repro.service import protocol as wire
from repro.service.client import QuantileClient
from repro.service.resilience import ADMIT_APPLY, ADMIT_DUPLICATE, RetryPolicy
from repro.service.server import QuantileService, ServerThread


def _values(count, seed=0):
    return np.random.default_rng(seed).standard_normal(count)


def _policy(**overrides):
    base = dict(timeout=2.0, retries=2, backoff=0.01, backoff_max=0.05, seed=1)
    base.update(overrides)
    return RetryPolicy(**base)


def _node(tmp_path, node_id, port=0):
    return ServerThread(
        QuantileService(tmp_path / node_id, node_id=node_id),
        port=port,
        snapshot_interval=None,
    )


# ----------------------------------------------------------------------
# Wire formats (pure encode/decode)
# ----------------------------------------------------------------------


class TestMigrationWire:
    def test_bundle_round_trip_full(self):
        marks = {"sess-a": 17, "sess-b": 3}
        bundle = wire.pack_migration_bundle(123, b"FRQ1...", marks, b"rings")
        n, sketch, out_marks, window = wire.unpack_migration_bundle(bundle)
        assert (n, sketch, out_marks, window) == (123, b"FRQ1...", marks, b"rings")

    def test_bundle_round_trip_sketch_only_and_window_only(self):
        n, sketch, marks, window = wire.unpack_migration_bundle(
            wire.pack_migration_bundle(5, b"payload", {})
        )
        assert (n, sketch, marks, window) == (5, b"payload", {}, None)
        n, sketch, marks, window = wire.unpack_migration_bundle(
            wire.pack_migration_bundle(0, None, {}, b"w")
        )
        assert (n, sketch, marks, window) == (0, None, {}, b"w")

    def test_bundle_rejects_garbage(self):
        with pytest.raises(ServiceError):
            wire.unpack_migration_bundle(b"NOT-A-BUNDLE")
        with pytest.raises(ServiceError):
            wire.unpack_migration_bundle(
                wire.pack_migration_bundle(1, b"x", {})[:-1]
            )

    def test_keys_response_round_trip(self):
        keys = ["lat", "err", "a/b/c", ""]
        assert wire.unpack_keys_response(
            wire.pack_keys_response(keys)[1:]
        ) == keys
        with pytest.raises(ServiceError):
            wire.unpack_keys_response(wire.pack_keys_response(keys)[1:] + b"x")

    def test_migrate_bodies_round_trip(self):
        assert wire.unpack_migrate(wire.pack_migrate(wire.MIGRATE_KEYS)) == (
            wire.MIGRATE_KEYS, False, ""
        )
        assert wire.unpack_migrate(
            wire.pack_migrate(wire.MIGRATE_BEGIN, "lat")
        ) == (wire.MIGRATE_BEGIN, False, "lat")
        assert wire.unpack_migrate(
            wire.pack_migrate(wire.MIGRATE_DRAIN, "lat", freeze=True)
        ) == (wire.MIGRATE_DRAIN, True, "lat")

    def test_drain_response_round_trip(self):
        for frozen in (True, False):
            body = wire.pack_drain_response(frozen)
            assert body[0] == wire.STATUS_OK
            assert wire.unpack_drain_response(body[1:]) is frozen
        # The response is exactly ``status, u8 frozen``.
        for payload in (b"", b"\x01\x00"):
            with pytest.raises(ServiceError):
                wire.unpack_drain_response(payload)

    def test_wrong_topology_body_raises_typed_error(self):
        body = wire.wrong_topology_body("not yours", '{"version": 9}')
        with pytest.raises(WrongTopologyError) as excinfo:
            wire.raise_for_status(body)
        assert excinfo.value.status == wire.STATUS_WRONG_TOPOLOGY
        assert excinfo.value.map_json == '{"version": 9}'


# ----------------------------------------------------------------------
# Ring: the add_node alias (and that it is version-bumping)
# ----------------------------------------------------------------------


def test_add_node_is_with_node():
    ring = ClusterMap([("a", "127.0.0.1", 7001)], replication=1)
    grown = ring.add_node(("b", "127.0.0.1", 7002))
    assert grown == ring.with_node(("b", "127.0.0.1", 7002))
    assert grown.version == ring.version + 1
    assert "b" in grown


# ----------------------------------------------------------------------
# Service-level migration surface (no sockets)
# ----------------------------------------------------------------------


class TestServiceMigration:
    def test_bundle_captures_sketch_marks_and_applies_exactly(self, tmp_path):
        a = QuantileService(tmp_path / "a", node_id="a")
        b = QuantileService(tmp_path / "b", node_id="b")
        stream = _values(2_000, seed=3)
        a.ingest("lat", stream)
        a.sessions.observe("writer-1", "lat", 41)
        bundle = a.migrate_begin("lat")
        assert a.migration_active("lat")

        n = b.migrate_apply("lat", bundle)
        assert n == 2_000
        # The move is a copy: byte-identical payload, identical answers.
        assert b.store.payload("lat") == a.store.payload("lat")
        # Exactly-once survives: the high-water mark came along, so the
        # frame the old owner already applied deduplicates at the new one
        # while the next frame in the sequence still applies.
        assert b.sessions.admit("writer-1", "lat", 41) == ADMIT_DUPLICATE
        assert b.sessions.admit("writer-1", "lat", 42) == ADMIT_APPLY
        a.close()
        b.close()

    def test_replace_push_is_idempotent(self, tmp_path):
        a = QuantileService(tmp_path / "a", node_id="a")
        b = QuantileService(tmp_path / "b", node_id="b")
        a.ingest("lat", _values(1_000, seed=4))
        bundle = a.migrate_begin("lat")
        first = b.migrate_apply("lat", bundle)
        payload = b.store.payload("lat")
        second = b.migrate_apply("lat", bundle)  # retried push
        assert (first, second) == (1_000, 1_000)
        assert b.store.payload("lat") == payload
        a.close()
        b.close()

    def test_apply_validates_before_wal(self, tmp_path):
        b = QuantileService(tmp_path / "b", node_id="b")
        bad = wire.pack_migration_bundle(9, b"not-an-frq1-payload", {})
        with pytest.raises(ServiceError):
            b.migrate_apply("lat", bad)
        # The reject never reached the WAL: recovery still works.
        b.close()
        again = QuantileService(tmp_path / "b", node_id="b")
        assert "lat" not in list(again.store.keys())
        again.close()

    def test_wal_replay_of_migrate_set_is_byte_exact(self, tmp_path):
        a = QuantileService(tmp_path / "a", node_id="a")
        b = QuantileService(tmp_path / "b", node_id="b")
        a.ingest("lat", _values(3_000, seed=5))
        b.migrate_apply("lat", a.migrate_begin("lat"))
        # Writes AFTER the install must replay onto the replaced state
        # with the same derived coin stream, or recovery diverges.
        b.ingest("lat", _values(500, seed=6))
        live = b.store.payload("lat")
        b.close(snapshot=False)  # no snapshot: recovery replays the WAL tail
        recovered = QuantileService(tmp_path / "b", node_id="b")
        assert recovered.store.payload("lat") == live
        a.close()
        recovered.close()

    def test_freeze_sheds_and_expires(self, tmp_path):
        a = QuantileService(tmp_path / "a", node_id="a")
        a.migration_freeze_timeout = 0.05
        a.ingest("lat", _values(100, seed=7))
        a.migrate_begin("lat")
        assert a.ingest("lat", _values(10, seed=8)) == 110  # applies as usual
        assert a.migrate_drain("lat") is False
        assert a.migrate_drain("lat", freeze=True) is True
        assert a.migration_frozen("lat")
        # No coordinator heartbeat: the freeze expires on its own and the
        # node goes back to being the key's authority (liveness).
        time.sleep(0.1)
        assert not a.migration_frozen("lat")
        assert not a.migration_active("lat")
        a.close()

    def test_topology_install_persists_and_refuses_downgrade(self, tmp_path):
        a = QuantileService(tmp_path / "a", node_id="a")
        ring = ClusterMap([("a", "127.0.0.1", 7001)], replication=1, version=3)
        assert a.install_topology(ring.to_json()) == 3
        with pytest.raises(ServiceError):
            a.install_topology(
                ClusterMap([("a", "127.0.0.1", 7001)], version=2).to_json()
            )
        a.close()
        again = QuantileService(tmp_path / "a", node_id="a")
        assert again.topology is not None and again.topology.version == 3
        again.close()


# ----------------------------------------------------------------------
# Server + clients: redirects and the migration opcodes over the wire
# ----------------------------------------------------------------------


@pytest.fixture
def pair(tmp_path):
    """Two nodes + an R=1 map so each key has exactly one owner."""
    threads = {nid: _node(tmp_path, nid) for nid in ("a", "b")}
    ring = ClusterMap(
        [(nid, "127.0.0.1", t.port) for nid, t in threads.items()],
        replication=1,
    )
    yield threads, ring
    for thread in threads.values():
        thread.stop(snapshot=False)


class TestTopologyOverTheWire:
    def test_topology_get_set_and_migrate_keys(self, pair):
        threads, ring = pair
        with QuantileClient("127.0.0.1", threads["a"].port, retry=_policy()) as client:
            assert client.topology() == ""
            client.ingest("lat", _values(10))
            client.ingest("err", _values(10))
            client.set_topology(ring.to_json())
            assert ClusterMap.from_json(client.topology()).version == ring.version
            assert sorted(client.migrate_keys()) == ["err", "lat"]

    def test_non_owner_redirects_with_map(self, pair):
        threads, ring = pair
        key = next(
            f"k{i}" for i in range(100)
            if ring.primary(f"k{i}").node_id == "b"
        )
        with QuantileClient("127.0.0.1", threads["a"].port, retry=_policy()) as client:
            client.set_topology(ring.to_json())
            with pytest.raises(WrongTopologyError) as excinfo:
                client.ingest(key, _values(5))
            assert ClusterMap.from_json(excinfo.value.map_json) == ring

    def test_multi_query_checks_ownership_like_query(self, pair):
        threads, ring = pair
        owned = next(f"k{i}" for i in range(100) if ring.primary(f"k{i}").node_id == "a")
        unowned = next(f"k{i}" for i in range(100) if ring.primary(f"k{i}").node_id == "b")
        long_unowned = next(
            key for key in (f"{'x' * 600}{i}" for i in range(100))
            if ring.primary(key).node_id == "b"
        )
        with QuantileClient("127.0.0.1", threads["a"].port, retry=_policy()) as client:
            for key in (owned, unowned, long_unowned):
                client.ingest(key, _values(50))
            client.set_topology(ring.to_json())
            with pytest.raises(WrongTopologyError):
                client.query(unowned, [0.5])
            # A uniform frame (one key) is redirected whole, map included.
            with pytest.raises(WrongTopologyError) as excinfo:
                client.query_many([(unowned, [0.5]), (unowned, [0.9])])
            assert ClusterMap.from_json(excinfo.value.map_json) == ring
            # A mixed frame: the unowned keys' records fail, the rest answer.
            answers = client.query_many(
                [(unowned, [0.5]), (owned, [0.5]), (long_unowned, "ranks", [0.0])]
            )
            assert answers[1].n == 50
            for index in (0, 2):
                assert isinstance(answers[index], ServiceError)
                assert answers[index].status == wire.STATUS_WRONG_TOPOLOGY
                assert answers[index].request_index == index
                assert "does not own" in str(answers[index])
            assert len(str(answers[2]).encode("utf-8")) <= wire.ERROR_MESSAGE_CAP

    def test_merge_applies_until_the_freeze_and_a_stale_drain_raises(self, pair):
        threads, _ring = pair
        service = threads["a"].service
        service.migration_freeze_timeout = 0.5
        donor = QuantileService(None)
        donor.ingest("lat", _values(30, seed=9))
        _n, payload = donor.payload("lat")
        # No retry policy: a RETRY_LATER answer surfaces as it is.
        with QuantileClient("127.0.0.1", threads["a"].port) as client:
            client.ingest("lat", _values(50))
            client.migrate_begin("lat")
            # An open migration does not refuse writes: the merge applies
            # and the next capture carries it.
            assert client.merge("lat", payload) == 80
            n, sketch, _marks, _window = wire.unpack_migration_bundle(
                client.migrate_begin("lat")
            )
            assert n == 80 and FastReqSketch.from_bytes(sketch).n == 80
            assert client.migrate_drain("lat", freeze=True) is True
            with pytest.raises(ServiceError) as excinfo:
                client.merge("lat", payload)
            assert excinfo.value.status == wire.STATUS_RETRY_LATER
            assert service.current_n("lat") == 80
            # Past the freeze deadline the key thawed: a heartbeat finds
            # no migration and fails, and the merge applies again.
            time.sleep(0.7)
            with pytest.raises(ServiceError):
                client.migrate_drain("lat", freeze=True)
            assert client.merge("lat", payload) == 110

    def test_frozen_key_sheds_unacked(self, pair):
        threads, _ring = pair
        with QuantileClient(
            "127.0.0.1", threads["a"].port, retry=_policy(retries=1)
        ) as client:
            client.ingest("lat", _values(50))
            client.migrate_begin("lat")
            client.migrate_drain("lat", freeze=True)
            with pytest.raises((RetryBudgetExceededError, ServiceError)):
                client.ingest("lat", _values(5))
            client.migrate_abort("lat")
        # Thawed: writes land again.  A fresh session sidesteps the shed
        # floor the frozen node pinned for the old one (the floor is the
        # gap-free-dedup guard; the real recovery path retries the *same*
        # frame against the new owner, which never saw the floor).
        with QuantileClient(
            "127.0.0.1", threads["a"].port, retry=_policy()
        ) as thawed:
            assert thawed.ingest("lat", _values(5)) == 55

    def test_cluster_client_adopts_pushed_map_and_reroutes(self, pair):
        threads, ring = pair
        key = next(
            f"k{i}" for i in range(100)
            if ring.primary(f"k{i}").node_id == "a"
        )
        with ClusterClient(ring, retry=_policy(), probe_interval=0.05) as cluster:
            cluster.ingest(key, _values(100, seed=11))
            # Move the key: a hands its state to b, installs the new map.
            new_ring = ring.without_node("a")
            with QuantileClient(
                "127.0.0.1", threads["a"].port, retry=_policy()
            ) as a_client, QuantileClient(
                "127.0.0.1", threads["b"].port, retry=_policy()
            ) as b_client:
                b_client.migrate_push(key, a_client.migrate_begin(key))
                b_client.set_topology(new_ring.to_json())
                a_client.set_topology(new_ring.to_json())
                a_client.migrate_commit(key)
            # The stale client hits a, gets redirected, adopts, lands on b.
            assert cluster.ingest(key, _values(50, seed=12)) == 150
            assert cluster.map.version == new_ring.version
            assert cluster.topology_refreshes == 1
            assert cluster.query(key, [0.5]).n == 150


# ----------------------------------------------------------------------
# Rebalancer end to end (grow and shrink)
# ----------------------------------------------------------------------


KEYS = ("lat", "err", "ttfb", "size", "rt")


@pytest.fixture
def trio(tmp_path):
    threads = {nid: _node(tmp_path, nid) for nid in ("a", "b", "c")}
    ring = ClusterMap(
        [(nid, "127.0.0.1", t.port) for nid, t in threads.items()],
        replication=2,
    )
    yield threads, ring
    for thread in threads.values():
        thread.stop(snapshot=False)


def _install(ring, threads):
    for nid, thread in threads.items():
        with QuantileClient("127.0.0.1", thread.port, retry=_policy()) as c:
            c.set_topology(ring.to_json())


class TestRebalancer:
    def test_plan_names_gainers_and_frozen_owners(self, trio):
        threads, ring = trio
        with ClusterClient(ring, retry=_policy()) as client:
            for key in KEYS:
                client.ingest(key, _values(200, seed=13))
        threads["d"] = _node(threads["a"].service.data_dir.parent, "d")
        new_ring = ring.add_node(("d", "127.0.0.1", threads["d"].port))
        with Rebalancer(ring, new_ring, retry=_policy()) as rebalancer:
            moves = rebalancer.plan()
        moved = {m.key for m in moves}
        expected = {
            k for k in KEYS
            if {n.node_id for n in ring.replicas(k)}
            != {n.node_id for n in new_ring.replicas(k)}
        }
        assert moved == expected
        for move in moves:
            old_ids = {n.node_id for n in ring.replicas(move.key)}
            new_ids = {n.node_id for n in new_ring.replicas(move.key)}
            assert set(move.destinations) == new_ids - old_ids
            assert set(move.frozen) == old_ids
            assert move.source in old_ids

    def test_rejects_non_newer_map(self, trio):
        _threads, ring = trio
        with pytest.raises(ClusterError):
            Rebalancer(ring, ring)

    def test_add_node_preserves_counts_accuracy_and_byte_identity(self, trio):
        threads, ring = trio
        rng = np.random.default_rng(17)
        streams = {key: rng.lognormal(0.0, 1.0, 3_000) for key in KEYS}
        with ClusterClient(ring, retry=_policy(), probe_interval=0.05) as client:
            for key, stream in streams.items():
                client.ingest_stream(key, stream, frame_values=500)
            _install(ring, threads)

            threads["d"] = _node(threads["a"].service.data_dir.parent, "d")
            new_ring = ring.add_node(("d", "127.0.0.1", threads["d"].port))
            with Rebalancer(ring, new_ring, retry=_policy()) as rebalancer:
                report = rebalancer.execute()
            assert report.committed
            assert report.new_version == new_ring.version

            # The stale client keeps working: every key answers its full
            # count and every estimate honours the reported bound.
            for key, stream in streams.items():
                result = client.query(key, [0.5, 0.99])
                assert result.n == len(stream)
                ordered = np.sort(stream)
                for fraction, estimate in zip([0.5, 0.99], result.quantiles):
                    rank = np.searchsorted(ordered, estimate, side="right")
                    assert abs(rank / len(stream) - fraction) <= result.error_bound

        # Every replica set of a moved key is byte-identical after the
        # re-base (same bundle, same derived coin stream).
        with ClusterClient(new_ring, retry=_policy()) as verify:
            for move in report.moves:
                payloads = set()
                for node in new_ring.replicas(move.key):
                    _n, payload = verify.node_client(node.node_id).fetch(move.key)
                    payloads.add(payload)
                assert len(payloads) == 1, f"{move.key} replicas diverge"
            verify.keys_seen = set(KEYS)
            assert repair(verify, digest=True).clean

    def test_remove_node_drains_it_and_rewrites_ownership(self, trio):
        threads, ring = trio
        streams = {key: _values(1_500, seed=19) for key in KEYS}
        with ClusterClient(ring, retry=_policy(), probe_interval=0.05) as client:
            for key, stream in streams.items():
                client.ingest_stream(key, stream, frame_values=500)
            _install(ring, threads)
            new_ring = ring.without_node("c")
            with Rebalancer(ring, new_ring, retry=_policy()) as rebalancer:
                report = rebalancer.execute()
            assert report.committed
            # c still runs but owns nothing; the stale client re-routes
            # around it and every count survives.
            for key, stream in streams.items():
                assert client.query(key, [0.5]).n == len(stream)
            for key in KEYS:
                assert "c" not in {n.node_id for n in new_ring.replicas(key)}


# ----------------------------------------------------------------------
# Hint-queue overflow, end to end (satellite: drop accounting + the
# replay applies exactly the retained prefix, in order)
# ----------------------------------------------------------------------


def test_hint_overflow_replays_exactly_the_retained_prefix(tmp_path):
    thread = _node(tmp_path, "a")
    ring = ClusterMap([("a", "127.0.0.1", thread.port)], replication=1)
    try:
        with ClusterClient(
            ring, retry=_policy(), probe_interval=0.05, max_hints=3
        ) as client:
            client.ingest("lat", _values(10, seed=23))
            port = thread.port
            thread.stop(snapshot=False)
            time.sleep(0.05)
            # Six single-frame writes into the outage: 3 buffered, 3
            # dropped (drop-newest keeps the prefix contiguous).
            for index in range(6):
                with pytest.raises(ClusterError):
                    client.ingest("lat", np.full(5, float(index)))
            queue = client._replicas["a"].hints
            assert len(queue) == 3
            assert queue.dropped_hints == 3 and queue.dropped_values == 15
            assert not queue.complete

            thread2 = ServerThread(
                QuantileService(tmp_path / "a", node_id="a"), port=port,
                snapshot_interval=None,
            )
            try:
                assert client.flush_hints() == {}
                # Exactly the retained prefix applied: 10 + 3 frames of 5.
                assert client.query("lat", [0.5]).n == 25
                assert queue.replayed_hints == 3
                # In order: the retained frames were 0, 1, 2 — the key's
                # max is 2.0, not 5.0.
                result = client.query("lat", [1.0])
                assert float(result.quantiles[0]) <= 2.0
            finally:
                thread2.stop(snapshot=False)
    finally:
        try:
            thread.stop(snapshot=False)
        except Exception:
            pass


# ----------------------------------------------------------------------
# CLI: cluster-reshard
# ----------------------------------------------------------------------


def test_cli_cluster_reshard_add(tmp_path, capsys):
    from repro.cli import main

    threads = {nid: _node(tmp_path, nid) for nid in ("a", "b")}
    try:
        ring = ClusterMap(
            [(nid, "127.0.0.1", t.port) for nid, t in threads.items()],
            replication=1,
        )
        topology_file = tmp_path / "ring.json"
        ring.save(topology_file)
        with ClusterClient(ring, retry=_policy()) as client:
            for key in KEYS:
                client.ingest(key, _values(300, seed=29))
        _install(ring, threads)

        threads["c"] = _node(tmp_path, "c")
        spec = f"c=127.0.0.1:{threads['c'].port}"

        assert main(["cluster-reshard", str(topology_file), "--add", spec,
                     "--plan"]) == 0
        out = capsys.readouterr().out
        assert "nothing executed" in out
        assert ClusterMap.load(topology_file).version == ring.version  # untouched

        assert main(["cluster-reshard", str(topology_file), "--add", spec]) == 0
        out = capsys.readouterr().out
        assert "committed" in out
        rewritten = ClusterMap.load(topology_file)
        assert rewritten.version == ring.version + 1 and "c" in rewritten

        with ClusterClient(rewritten, retry=_policy()) as client:
            for key in KEYS:
                assert client.query(key, [0.5]).n == 300
    finally:
        for thread in threads.values():
            thread.stop(snapshot=False)


def test_cli_cluster_reshard_rejects_bad_add_spec(tmp_path, capsys):
    from repro.cli import main

    ring = ClusterMap([("a", "127.0.0.1", 7001)], replication=1)
    topology_file = tmp_path / "ring.json"
    ring.save(topology_file)
    assert main(["cluster-reshard", str(topology_file), "--add", "nonsense"]) == 2
    assert "node-id=host:port" in capsys.readouterr().err

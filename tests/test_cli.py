"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run(self):
        args = build_parser().parse_args(["run", "E1", "--scale", "smoke"])
        assert args.experiment == "E1"
        assert args.scale == "smoke"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E12" in out

    def test_run_smoke(self, capsys):
        assert main(["run", "E3", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "E3" in out

    def test_run_unknown_is_error(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bounds(self, capsys):
        assert main(["bounds", "--eps", "0.01", "--n", "1e8"]) == 0
        out = capsys.readouterr().out
        assert "REQ (Thm 1)" in out
        assert "Zhang-Wang" in out

    def test_sketch_file(self, tmp_path, capsys):
        path = tmp_path / "numbers.txt"
        path.write_text(" ".join(str(i) for i in range(1000)))
        assert main(["sketch", str(path), "--q", "0.5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "n=1000" in out

    def test_sketch_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["sketch", str(path)]) == 1

    def test_sketch_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 4 5"))
        assert main(["sketch", "-"]) == 0
        assert "n=5" in capsys.readouterr().out

    def test_sketch_sharded(self, tmp_path, capsys):
        path = tmp_path / "numbers.txt"
        path.write_text(" ".join(str(i) for i in range(2000)))
        assert main(["sketch", str(path), "--shards", "4", "--q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "n=2000" in out
        assert "shards=4/local" in out

    def test_sketch_sharded_process_backend(self, tmp_path, capsys):
        path = tmp_path / "numbers.txt"
        path.write_text(" ".join(str(i) for i in range(2000)))
        argv = ["sketch", str(path), "--shards", "2", "--backend", "process", "--q", "0.5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "n=2000" in out
        assert "shards=2/process" in out

    def test_sketch_sharded_requires_fast_engine(self, tmp_path, capsys):
        path = tmp_path / "numbers.txt"
        path.write_text("1 2 3")
        assert (
            main(["sketch", str(path), "--shards", "4", "--engine", "reference"]) == 2
        )
        assert "fast engine" in capsys.readouterr().err

    def test_sketch_process_backend_requires_shards(self, tmp_path, capsys):
        path = tmp_path / "numbers.txt"
        path.write_text("1 2 3")
        assert main(["sketch", str(path), "--backend", "process"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        # report runs ALL experiments; smoke scale keeps it quick but this
        # is still the slowest CLI test.
        assert main(["report", "--scale", "smoke", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "## E1" in text and "## E12" in text


class TestVersion:
    def test_version_command(self, capsys):
        from repro import __version__

        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == f"repro-quantiles {__version__}"

    def test_version_single_sourced_with_setup_py(self):
        import pathlib
        import re

        from repro import __version__

        setup_text = (
            pathlib.Path(__file__).resolve().parent.parent / "setup.py"
        ).read_text(encoding="utf-8")
        assert "_version.py" in setup_text, "setup.py must read src/repro/_version.py"
        assert not re.search(r'version\s*=\s*"', setup_text), (
            "setup.py must not hard-code a version string"
        )
        version_text = (
            pathlib.Path(__file__).resolve().parent.parent
            / "src"
            / "repro"
            / "_version.py"
        ).read_text(encoding="utf-8")
        assert f'__version__ = "{__version__}"' in version_text


class TestServiceCommands:
    @pytest.fixture()
    def live_server(self):
        from repro.service import QuantileService, ServerThread

        with ServerThread(QuantileService(None, k=32)) as running:
            yield running

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7379
        assert args.data_dir is None
        assert args.memory_budget is None
        assert args.snapshot_interval == 30.0

    def test_query_against_live_server(self, live_server, capsys):
        from repro.service import QuantileClient

        with QuantileClient(port=live_server.port) as client:
            client.ingest("cli-key", [float(i) for i in range(1000)])
        assert (
            main(
                ["query", "cli-key", "--port", str(live_server.port), "--q", "0.5"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cli-key" in out
        assert "n=1,000" in out

    def test_query_stats(self, live_server, capsys):
        assert main(["query", "--stats", "--port", str(live_server.port)]) == 0
        out = capsys.readouterr().out
        assert '"keys"' in out

    def test_query_without_key_or_stats_is_error(self, live_server, capsys):
        assert main(["query", "--port", str(live_server.port)]) == 2
        assert "key" in capsys.readouterr().err

    def test_query_connection_refused_is_error(self, capsys):
        # Port 1 is privileged and unbound; connection is refused fast.
        assert main(["query", "k", "--port", "1"]) == 2
        assert "error" in capsys.readouterr().err


class TestClusterCommands:
    """``cluster-status`` and ``cluster-reshard`` against in-process nodes."""

    KEYS = ("lat", "err", "ttfb", "size", "rt", "qps")

    @pytest.fixture()
    def cluster(self, tmp_path):
        from repro.cluster import ClusterClient, ClusterMap
        from repro.service import QuantileClient, QuantileService, ServerThread

        threads = {}

        def spawn(node_id, port=0):
            threads[node_id] = ServerThread(
                QuantileService(tmp_path / node_id, node_id=node_id),
                port=port,
                snapshot_interval=None,
            )
            return threads[node_id]

        for node_id in ("a", "b"):
            spawn(node_id)
        ring = ClusterMap(
            [(nid, "127.0.0.1", thread.port) for nid, thread in threads.items()],
            replication=1,
        )
        topology = tmp_path / "ring.json"
        ring.save(topology)
        for thread in threads.values():
            with QuantileClient(port=thread.port) as client:
                client.set_topology(ring.to_json())
        with ClusterClient(ring) as client:
            for key in self.KEYS:
                client.ingest(key, [float(i) for i in range(100)])
        try:
            yield ring, topology, threads, spawn
        finally:
            for thread in threads.values():
                thread.stop(snapshot=False)

    @staticmethod
    def _node_state(threads):
        """Per node: its topology version, held keys and live migrations."""
        return {
            node_id: (
                thread.service.topology.version,
                sorted(thread.service.store.keys()),
                thread.service.stats()["migrating_keys"],
            )
            for node_id, thread in threads.items()
        }

    def test_cluster_status_prints_every_node(self, cluster, capsys):
        ring, topology, threads, _spawn = cluster
        assert main(["cluster-status", str(topology), "--key", "lat"]) == 0
        out = capsys.readouterr().out
        assert f"cluster topology v{ring.version}" in out
        for node_id, thread in threads.items():
            row = next(line for line in out.splitlines() if f"127.0.0.1:{thread.port}" in line)
            assert node_id in row and "ready" in row
        assert "key 'lat'" in out and "consistent" in out

    def test_cluster_reshard_plan_prints_moves_and_changes_nothing(self, cluster, capsys):
        ring, topology, threads, spawn = cluster
        spec = f"c=127.0.0.1:{spawn('c').port}"
        new_ring = ring.add_node(("c", "127.0.0.1", threads["c"].port))
        moving = [key for key in self.KEYS if new_ring.primary(key).node_id == "c"]
        assert moving, "adding a node moved nothing; widen KEYS"
        before_file = topology.read_bytes()
        before_nodes = self._node_state({nid: threads[nid] for nid in ("a", "b")})

        assert main(["cluster-reshard", str(topology), "--add", spec, "--plan"]) == 0
        out = capsys.readouterr().out
        for key in moving:
            source = ring.primary(key).node_id
            assert f"key {key!r}: {source} -> c" in out
        assert f"plan: {len(moving)} keys would move" in out
        assert "nothing executed" in out
        assert topology.read_bytes() == before_file
        assert self._node_state({nid: threads[nid] for nid in ("a", "b")}) == before_nodes
        assert threads["c"].service.topology is None
        assert list(threads["c"].service.store.keys()) == []

    def test_cluster_reshard_add_rewrites_the_topology_only_after_a_commit(
        self, cluster, capsys
    ):
        from repro.cluster import ClusterClient, ClusterMap

        ring, topology, threads, spawn = cluster
        port = spawn("c").port
        threads.pop("c").stop(snapshot=False)
        spec = f"c=127.0.0.1:{port}"
        before_file = topology.read_bytes()

        # The new node is down: the first push fails, the run aborts, and
        # neither the file nor any node moves off the old map.
        assert main(["cluster-reshard", str(topology), "--add", spec, "--timeout", "0.5"]) == 2
        assert "error" in capsys.readouterr().err
        assert topology.read_bytes() == before_file
        for thread in threads.values():
            assert thread.service.topology.version == ring.version
            assert thread.service.stats()["migrating_keys"] == 0

        spawn("c", port=port)
        assert main(["cluster-reshard", str(topology), "--add", spec]) == 0
        out = capsys.readouterr().out
        assert f"topology v{ring.version} -> v{ring.version + 1}" in out
        assert "committed" in out and "NOT committed" not in out
        assert "moved '" in out
        rewritten = ClusterMap.load(topology)
        assert rewritten.version == ring.version + 1 and "c" in rewritten
        for thread in threads.values():
            assert thread.service.topology.version == rewritten.version
        with ClusterClient(rewritten) as client:
            for key in self.KEYS:
                assert client.query(key, [0.5]).n == 100

"""The resident scheduler service: protocol, handlers, daemon, CLI.

Three layers under test, mirroring the subsystem's own layering:

* the **frame protocol** over a raw socketpair (roundtrips, clean EOF vs
  torn stream);
* the **service handlers** driven directly (no socket): schedule records
  identical to :func:`repro.experiments.runner.run_single`, sweeps
  identical to direct plan execution, per-request quarantine;
* the **daemon end to end** over an ``AF_UNIX`` socket: warm-cache repeat
  queries serve exact bytes with zero fresh simulations, two concurrent
  clients sweeping overlapping plans lose no rows and double-compute
  nothing, errors never kill the daemon, shutdown is clean.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core.tree_io import to_dict
from repro.experiments.config import SweepConfig
from repro.experiments.plan import SweepPlan, execute_plan
from repro.experiments.records import RecordTable, records_equal
from repro.experiments.runner import prepare_instance, run_single
from repro.experiments.specs import load_dataset
from repro.resilience import reset_run_health
from repro.service import (
    FRAME_JSON,
    FRAME_ROWS,
    ProtocolError,
    RemoteError,
    SchedulerDaemon,
    SchedulerService,
    ServiceClient,
    decode_payload,
    parse_address,
    recv_frame,
    send_frame,
    send_json,
)
from repro.workloads import SyntheticTreeConfig, synthetic_tree, synthetic_trees

TIMING_FIELDS = ("scheduling_seconds", "scheduling_seconds_per_node")


@pytest.fixture(autouse=True)
def _fresh_health():
    reset_run_health()
    yield
    reset_run_health()


@pytest.fixture
def service(tmp_path):
    return SchedulerService(cache_dir=tmp_path / "cache")


@pytest.fixture
def daemon(service, tmp_path):
    instance = SchedulerDaemon(
        service, socket_path=tmp_path / "mt.sock", request_timeout=30.0
    )
    instance.start()
    yield instance
    instance.stop()


def _drain(service, request):
    """Run one request through the service and split (row batches, payload)."""
    batches: list[RecordTable] = []
    terminal = None
    for kind, payload in service.handle(request):
        if kind == FRAME_ROWS:
            batches.append(RecordTable(payload))
        else:
            assert terminal is None, "only one terminal J frame allowed"
            terminal = decode_payload(payload)
    assert terminal is not None
    return batches, terminal


# --------------------------------------------------------------------------- #
# protocol framing
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_roundtrip_both_kinds(self):
        a, b = socket.socketpair()
        try:
            send_json(a, {"kind": "ping", "x": [1, 2.5, None]})
            send_frame(a, FRAME_ROWS, b"\x00\x01" * 1000)
            kind, payload = recv_frame(b)
            assert kind == FRAME_JSON
            assert decode_payload(payload) == {"kind": "ping", "x": [1, 2.5, None]}
            kind, payload = recv_frame(b)
            assert kind == FRAME_ROWS and payload == b"\x00\x01" * 1000
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none_torn_stream_raises(self):
        a, b = socket.socketpair()
        try:
            a.close()
            assert recv_frame(b) is None  # EOF at a frame boundary
        finally:
            b.close()
        a, b = socket.socketpair()
        try:
            a.sendall(b"J\x00\x00")  # half a header, then EOF
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_unknown_frame_kind_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"X\x00\x00\x00\x00")
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self, tmp_path):
        assert parse_address(tmp_path / "x.sock")[0] == socket.AF_UNIX
        assert parse_address("127.0.0.1:9000") == (
            socket.AF_INET,
            ("127.0.0.1", 9000),
        )
        assert parse_address("9000") == (socket.AF_INET, ("127.0.0.1", 9000))
        with pytest.raises(ValueError):
            parse_address("not-an-address")


# --------------------------------------------------------------------------- #
# service handlers (no socket)
# --------------------------------------------------------------------------- #
class TestSchedulerService:
    def test_schedule_matches_run_single(self, service):
        tree = synthetic_tree(num_nodes=60, rng=11)
        record = service.schedule_record(
            {
                "tree": to_dict(tree),
                "scheduler": "Activation",
                "processors": 4,
                "memory_factor": 2.0,
            }
        )
        config = SweepConfig(
            schedulers=("Activation",), memory_factors=(2.0,), processors=(4,)
        )
        expected = run_single(
            prepare_instance(tree, 0, config), "Activation", 4, 2.0, config
        )
        assert records_equal([record], [expected], ignore=TIMING_FIELDS)

    def test_absolute_memory_maps_to_factor(self, service):
        tree = synthetic_tree(num_nodes=60, rng=11)
        record = service.schedule_record(
            {"tree": to_dict(tree), "scheduler": "Activation", "memory": 5000.0}
        )
        assert record["memory_limit"] == pytest.approx(5000.0)

    def test_warm_context_is_reused(self, service):
        tree = synthetic_tree(num_nodes=60, rng=11)
        request = {"tree": to_dict(tree), "scheduler": "Activation"}
        service.schedule_record(dict(request))
        assert len(service._contexts) == 1
        service.schedule_record(dict(request, processors=2))
        assert len(service._contexts) == 1  # same tree/orders: one context

    def test_sweep_matches_direct_plan_execution(self, service):
        service.load_dataset("synthetic", "tiny")
        batches, stats = _drain(
            service,
            {
                "kind": "sweep",
                "dataset": "synthetic:tiny",
                "schedulers": ["Activation", "MemBooking"],
                "processors": [2],
                "memory_factors": [2.0],
            },
        )
        got = [row for batch in batches for row in batch.to_dicts()]
        trees = load_dataset("synthetic", "tiny", 7011)
        config = SweepConfig(
            schedulers=("Activation", "MemBooking"),
            memory_factors=(2.0,),
            processors=(2,),
        )
        expected = execute_plan(trees, SweepPlan.from_config(config, len(trees)))
        assert records_equal(got, expected.to_dicts(), ignore=TIMING_FIELDS)
        assert stats["rows"] == len(expected)
        assert stats["fresh_rows"] == len(expected)

    def test_sweep_row_subset(self, service):
        service.load_dataset("synthetic", "tiny")
        batches, stats = _drain(
            service,
            {
                "kind": "sweep",
                "dataset": "synthetic:tiny",
                "schedulers": ["Activation"],
                "processors": [2],
                "memory_factors": [2.0],
                "rows": [0, 2],
            },
        )
        got = [row for batch in batches for row in batch.to_dicts()]
        assert [record["tree_index"] for record in got] == [0, 2]
        assert stats["rows"] == 2

    def test_unknown_kind_and_bad_request_are_quarantined(self, service):
        for _ in range(2):
            _, terminal = _drain(service, {"kind": "frobnicate"})
            assert terminal["ok"] is False
            assert terminal["error"]["type"] == "ServiceError"
        _, terminal = _drain(
            service, {"kind": "schedule", "dataset": "nope", "tree_index": 0}
        )
        assert terminal["ok"] is False
        # the service still answers after quarantined requests
        _, terminal = _drain(service, {"kind": "ping"})
        assert terminal["ok"] is True
        snapshot = service.metrics.snapshot()
        assert snapshot["frobnicate"]["errors"] == 2
        assert snapshot["schedule"]["errors"] == 1

    def test_evict_drops_dataset_and_contexts(self, service):
        service.load_dataset("synthetic", "tiny")
        _drain(
            service,
            {"kind": "schedule", "dataset": "synthetic:tiny", "tree_index": 0},
        )
        assert len(service._contexts) == 1
        _, terminal = _drain(service, {"kind": "evict", "name": "synthetic:tiny"})
        assert terminal["ok"] is True
        assert service.datasets == {}
        assert service._contexts == {}
        _, terminal = _drain(
            service, {"kind": "sweep", "dataset": "synthetic:tiny"}
        )
        assert terminal["ok"] is False

    def test_status_shape(self, service):
        _, loaded = _drain(
            service, {"kind": "load", "dataset_kind": "synthetic", "scale": "tiny"}
        )
        assert loaded["ok"] is True
        _, status = _drain(service, {"kind": "status"})
        assert status["ok"] is True
        assert status["uptime_seconds"] >= 0.0
        assert status["datasets"]["synthetic:tiny"]["trees"] == 4
        assert status["cache"]["kind"] == "ResultCache"
        assert set(status["health"]) >= {"retries", "timeouts"}
        assert status["metrics"]["load"]["count"] == 1


# --------------------------------------------------------------------------- #
# daemon end to end
# --------------------------------------------------------------------------- #
class TestDaemon:
    def test_schedule_inline_and_resident_agree(self, daemon, service):
        service.load_dataset("synthetic", "tiny")
        trees = load_dataset("synthetic", "tiny", 7011)
        with ServiceClient(daemon.address) as client:
            inline = client.schedule(
                tree=to_dict(trees[1]),
                tree_index=1,
                scheduler="Activation",
                processors=2,
                memory_factor=2.0,
            )
            resident = client.schedule(
                dataset="synthetic:tiny",
                tree_index=1,
                scheduler="Activation",
                processors=2,
                memory_factor=2.0,
            )
        assert records_equal([inline], [resident], ignore=TIMING_FIELDS)

    def test_schedule_memory_oblivious_scheduler(self, daemon):
        """The bound check skips ListNoMemory, which ignores it by design."""
        tree = synthetic_tree(num_nodes=100, rng=9)
        with ServiceClient(daemon.address) as client:
            record = client.schedule(
                tree=to_dict(tree), scheduler="ListNoMemory", memory_factor=1.5
            )
        config = SweepConfig(
            schedulers=("ListNoMemory",), memory_factors=(1.5,), processors=(8,)
        )
        expected = run_single(
            prepare_instance(tree, 0, config), "ListNoMemory", 8, 1.5, config
        )
        assert records_equal([record], [expected], ignore=TIMING_FIELDS)
        assert record["completed"] and record["memory_fraction"] > 1.0

    def test_warm_sweep_serves_exact_bytes_with_zero_fresh(self, daemon, service):
        service.load_dataset("synthetic", "tiny")
        request = dict(
            schedulers=["Activation"], processors=[2, 4], memory_factors=[2.0]
        )
        with ServiceClient(daemon.address) as client:
            first, stats1 = client.sweep("synthetic:tiny", **request)
            second, stats2 = client.sweep("synthetic:tiny", **request)
        assert stats1["fresh_rows"] == len(first) > 0
        assert stats2["fresh_rows"] == 0
        assert stats2["cached_rows"] == len(second) == len(first)
        # Cached rows round-trip exact bits — timing fields included.
        assert records_equal(first, second)

    def test_concurrent_clients_overlapping_plans(self, daemon, service):
        service.load_dataset("synthetic", "tiny")
        trees = load_dataset("synthetic", "tiny", 7011)
        config = SweepConfig(
            schedulers=("Activation", "MemBooking"),
            memory_factors=(2.0,),
            processors=(2,),
        )
        plan = SweepPlan.from_config(config, len(trees))
        reference = execute_plan(trees, plan).to_dicts()
        windows = [list(range(0, 6)), list(range(2, 8))]  # rows 2..5 overlap
        results: dict[int, list[dict]] = {}
        errors: list[BaseException] = []

        def sweep(slot: int, rows: list[int]) -> None:
            try:
                with ServiceClient(daemon.address) as client:
                    records, _ = client.sweep(
                        "synthetic:tiny",
                        schedulers=["Activation", "MemBooking"],
                        processors=[2],
                        memory_factors=[2.0],
                        rows=rows,
                    )
                    results[slot] = records
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=(slot, rows))
            for slot, rows in enumerate(windows)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for slot, rows in enumerate(windows):
            assert records_equal(
                results[slot], [reference[row] for row in rows], ignore=TIMING_FIELDS
            )
        # No lost rows and no double-compute: the union of both windows is
        # cached, and the overlap was simulated exactly once.
        keys = plan.instance_keys(trees)
        union = sorted({row for rows in windows for row in rows})
        assert service.cache.count_cached([keys[row] for row in union]) == len(union)
        assert service.cache.rows_fresh == len(union)
        assert not list(service.cache.directory.glob("*.quarantined"))

    def test_error_keeps_connection_and_daemon_alive(self, daemon):
        with ServiceClient(daemon.address) as client:
            with pytest.raises(RemoteError) as info:
                client.sweep("never-loaded")
            assert "never-loaded" in str(info.value)
            assert client.ping()["ok"] is True  # same connection still serves

    def test_tcp_mode(self, service):
        daemon = SchedulerDaemon(service, port=0, request_timeout=30.0)
        daemon.start()
        try:
            assert daemon.port != 0
            with ServiceClient(daemon.address) as client:
                assert client.ping()["ok"] is True
        finally:
            daemon.stop()

    def test_shutdown_request_stops_daemon_and_unlinks(self, service, tmp_path):
        path = tmp_path / "down.sock"
        daemon = SchedulerDaemon(service, socket_path=path, request_timeout=30.0)
        daemon.start()
        server = threading.Thread(target=daemon.serve_forever, daemon=True)
        server.start()
        with ServiceClient(daemon.address) as client:
            assert client.shutdown_server()["shutting_down"] is True
        server.join(timeout=10)
        assert not server.is_alive()
        assert not path.exists()

    def test_stop_on_idle_daemon_is_prompt(self, service, tmp_path):
        """stop() wakes the blocked accept() instead of waiting out its join."""
        daemon = SchedulerDaemon(service, socket_path=tmp_path / "idle.sock")
        daemon.start()
        time.sleep(0.2)  # let the accept thread block in accept()
        tic = time.perf_counter()
        daemon.stop()
        assert time.perf_counter() - tic < 1.0
        assert not (tmp_path / "idle.sock").exists()

    def test_two_daemons_cannot_share_a_socket(self, daemon, service):
        other = SchedulerDaemon(service, socket_path=daemon.socket_path)
        with pytest.raises(RuntimeError, match="already serving"):
            other.start()


# --------------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------------- #
class TestCli:
    @pytest.fixture
    def tree_file(self, tmp_path):
        from repro.core.tree_io import save_json

        tree = synthetic_tree(num_nodes=60, rng=11)
        return save_json(tree, tmp_path / "tree.json")

    def test_schedule_json_matches_wire_serializer(self, tree_file, capsys):
        from repro.cli import main

        assert main(["schedule", str(tree_file), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scheduler"] == "MemBooking"
        assert record["completed"] is True
        assert len(record) == 21

    def test_figure_dry_run_json(self, capsys):
        from repro.cli import main

        assert main(["figure", "fig10", "--scale", "tiny", "--dry-run", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unique"] > 0
        assert report["figures"][0]["figure_id"] == "fig10"

    def test_serve_and_client_loop(self, tree_file, tmp_path, capsys):
        import time

        from repro.cli import main

        sock = tmp_path / "cli.sock"
        server = threading.Thread(
            target=main,
            args=(["serve", "--socket", str(sock), "--load", "synthetic:tiny"],),
            daemon=True,
        )
        server.start()
        for _ in range(200):
            if sock.exists():
                break
            time.sleep(0.05)
        assert sock.exists()
        try:
            assert main(["client", str(sock), "status"]) == 0
            status = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert status["datasets"]["synthetic:tiny"]["trees"] == 4

            assert (
                main(
                    [
                        "client", str(sock), "sweep",
                        "--dataset", "synthetic:tiny",
                        "--schedulers", "Activation",
                        "--processors", "2",
                        "--memory-factors", "2.0",
                        "--rows", "0-1",
                        "--json",
                    ]
                )
                == 0
            )
            sweep = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert sweep["stats"]["rows"] == 2
            assert len(sweep["records"]) == 2

            # --via routes through the daemon and prints the same record
            assert main(["schedule", str(tree_file), "--via", str(sock), "--json"]) == 0
            remote = json.loads(capsys.readouterr().out)
            assert main(["schedule", str(tree_file), "--json"]) == 0
            local = json.loads(capsys.readouterr().out)
            assert records_equal([remote], [local], ignore=TIMING_FIELDS)
        finally:
            assert main(["client", str(sock), "shutdown"]) == 0
            server.join(timeout=10)
        assert not server.is_alive()
        assert not sock.exists()

    def test_client_connection_refused_is_reported(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["client", str(tmp_path / "absent.sock"), "ping"]) == 1
        assert "cannot reach daemon" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# wire format details
# --------------------------------------------------------------------------- #
class TestWireFormat:
    def test_record_table_roundtrips_through_to_bytes(self):
        trees = synthetic_trees(2, SyntheticTreeConfig(num_nodes=30), rng=5)
        config = SweepConfig(
            schedulers=("Activation",), memory_factors=(2.0,), processors=(2,)
        )
        table = execute_plan(trees, SweepPlan.from_config(config, len(trees)))
        clone = RecordTable(table.to_bytes())
        assert clone.to_dicts() == table.to_dicts()
        assert clone.to_bytes() == table.to_bytes()

    def test_sweep_streams_in_batches(self, service):
        service.load_dataset("synthetic", "tiny")
        batches, stats = _drain(
            service,
            {
                "kind": "sweep",
                "dataset": "synthetic:tiny",
                "schedulers": ["Activation"],
                "processors": [2, 4],
                "memory_factors": [2.0],
                "batch_rows": 1,
            },
        )
        assert len(batches) == stats["rows"] == 8
        assert all(len(batch) == 1 for batch in batches)

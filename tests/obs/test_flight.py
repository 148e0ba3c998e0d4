"""FlightRecorder: bounded ring, postmortem dumps, thread safety."""

import json
import threading

import pytest

from repro.obs.flight import (
    FlightRecorder,
    default_flight_recorder,
    set_default_flight_recorder,
)


class TestRing:
    def test_bounded_capacity_keeps_newest(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record("shed", "msgd", t=float(i), n=i)
        assert len(rec.snapshot()) == 8
        assert rec.total_recorded == 20
        events = rec.snapshot()
        assert [e["n"] for e in events] == list(range(12, 20))
        # seq numbers keep counting past the ring
        assert events[-1]["seq"] == 20

    def test_fields_are_json_safe(self):
        rec = FlightRecorder()
        event = rec.record(
            "deadletter", "msgd", t=1.0,
            reason="unroutable", journal_seq=4, none_field=None, obj=object,
        )
        assert event["reason"] == "unroutable"
        assert event["journal_seq"] == 4
        assert "none_field" not in event
        assert isinstance(event["obj"], str)
        json.dumps(rec.to_json())  # never raises

    def test_snapshot_filters_by_kind_and_last(self):
        rec = FlightRecorder()
        rec.record("shed", "msgd", t=0.0)
        rec.record("deadletter", "msgd", t=1.0)
        rec.record("shed", "msgd", t=2.0)
        assert [e["t"] for e in rec.snapshot(kind="shed")] == [0.0, 2.0]
        assert [e["t"] for e in rec.snapshot(last=1)] == [2.0]
        assert rec.snapshot(last=0) == []
        with pytest.raises(ValueError):
            rec.snapshot(last=-2)
        assert rec.counts_by_kind() == {"shed": 2, "deadletter": 1}

    def test_disabled_recorder_is_a_noop(self):
        rec = FlightRecorder(enabled=False)
        assert rec.record("shed", "msgd", t=0.0) is None
        assert len(rec.snapshot()) == 0
        assert rec.total_recorded == 0

    def test_thread_safety_under_concurrent_recording(self):
        rec = FlightRecorder(capacity=64)
        n_threads, per_thread = 8, 500

        def worker(i):
            for j in range(per_thread):
                rec.record("shed", f"w{i}", t=float(j))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.total_recorded == n_threads * per_thread
        assert len(rec.snapshot()) == 64
        seqs = [e["seq"] for e in rec.snapshot()]
        # the retained window is the most recent, strictly ordered slice
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert seqs[-1] == n_threads * per_thread


class TestPostmortem:
    def test_dump_writes_deterministic_json(self, tmp_path):
        rec = FlightRecorder()
        rec.record("hold", "msgd", t=1.5, dest="a:1")
        path = rec.dump(str(tmp_path / "dump.json"), trigger="manual")
        payload = json.loads(open(path).read())
        assert payload["trigger"] == "manual"
        assert payload["events"][0]["kind"] == "hold"

    def test_postmortem_records_trigger_and_dumps(self, tmp_path):
        rec = FlightRecorder(postmortem_dir=str(tmp_path))
        rec.record("shed", "msgd", t=1.0)
        path = rec.postmortem("deadletter", t=2.0, reason="unroutable")
        assert path is not None and path.endswith("postmortem-1-deadletter.json")
        payload = json.loads(open(path).read())
        kinds = [e["kind"] for e in payload["events"]]
        assert kinds == ["shed", "postmortem"]
        assert payload["events"][-1]["trigger"] == "deadletter"
        assert payload["events"][-1]["t"] == 2.0

    def test_postmortem_without_dir_still_records(self):
        rec = FlightRecorder()
        assert rec.postmortem("crash", t=0.0) is None
        assert rec.snapshot(kind="postmortem")

    def test_dump_cap_stops_a_deadletter_storm(self, tmp_path):
        rec = FlightRecorder(postmortem_dir=str(tmp_path), postmortem_limit=3)
        written = [rec.postmortem("deadletter", t=float(i)) for i in range(10)]
        assert sum(1 for p in written if p) == 3
        assert len(list(tmp_path.iterdir())) == 3


class TestDispatcherIntegration:
    def test_deadletter_triggers_a_postmortem_dump(self, tmp_path, simnet):
        """An unroutable journaled message dead-letters; the flight
        recorder dumps the black box automatically."""
        from repro.core.registry import ServiceRegistry
        from repro.core.sim_dispatcher import (
            SimMsgDispatcher,
            SimMsgDispatcherConfig,
        )
        from repro.http import Headers, HttpRequest
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import TraceStore
        from repro.simnet.httpsim import SimHttpServer, sim_http_request
        from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
        from repro.soap.constants import SOAP11_CONTENT_TYPE
        from repro.store.journal import MessageJournal
        from repro.workload.echo import make_echo_message

        sim = simnet.sim
        client = add_site(simnet, INRIA, name="client")
        wsd = add_site(simnet, BACKBONE_IU, name="wsd", open_ports=(8000,))
        flight = FlightRecorder(
            clock=lambda: sim.now, postmortem_dir=str(tmp_path)
        )
        journal = MessageJournal(sync="lazy", now_fn=lambda: sim.now)
        dispatcher = SimMsgDispatcher(
            simnet, wsd, ServiceRegistry(metrics=MetricsRegistry()),
            own_address="http://wsd:8000/msg",
            config=SimMsgDispatcherConfig(),
            metrics=MetricsRegistry(), traces=TraceStore(),
            durable=journal, flight=flight,
        )
        SimHttpServer(simnet, wsd, 8000, dispatcher.handler)

        env = make_echo_message(to="urn:wsd:nosuch", message_id="uuid:pm-1")
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)

        def send():
            resp = yield from sim_http_request(
                simnet, client, "wsd", 8000,
                HttpRequest(
                    "POST", "/msg/nosuch", headers=headers, body=env.to_bytes()
                ),
            )
            return resp.status

        assert sim.run(sim.process(send())) == 202
        sim.run(until=sim.now + 2.0)

        assert flight.counts_by_kind().get("deadletter") == 1
        dumps = sorted(tmp_path.iterdir())
        assert len(dumps) == 1 and "deadletter" in dumps[0].name
        payload = json.loads(dumps[0].read_text())
        kinds = [e["kind"] for e in payload["events"]]
        assert "deadletter" in kinds
        journal.close()


class TestDefaultRecorder:
    def test_swap_and_restore(self):
        mine = FlightRecorder()
        previous = set_default_flight_recorder(mine)
        try:
            assert default_flight_recorder() is mine
        finally:
            set_default_flight_recorder(previous)
        assert default_flight_recorder() is previous

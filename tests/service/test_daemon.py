"""The daemon end to end: sockets, wire format, drain, acceptance criteria."""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.pipeline import Budget, Job, RunRecord
from repro.service import (
    OptimizationDaemon,
    OptimizationQueue,
    ResultCache,
    TenantShare,
    job_from_dict,
    job_to_dict,
    request,
    wait_for_result,
)
from repro.service.daemon import LOCAL_ONLY_FIELDS

FAST = dict(iter_limit=2, node_limit=8_000)

TENANTS = [TenantShare("team-a"), TenantShare("team-b")]


@pytest.fixture
def daemon(tmp_path):
    """A served daemon on a tmp socket; always shut down cleanly."""
    queue = OptimizationQueue(
        TENANTS,
        budget=Budget(time_s=60.0),
        cache=ResultCache(path=tmp_path / "cache.json"),
    )
    instance = OptimizationDaemon(tmp_path / "repro.sock", queue)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    # Wait until the socket answers.
    for _ in range(100):
        try:
            assert request(instance.socket_path, {"op": "ping"})["ok"]
            break
        except (FileNotFoundError, ConnectionError, OSError):
            threading.Event().wait(0.05)
    else:
        raise RuntimeError("daemon did not come up")
    yield instance
    if not instance._stopping.is_set():
        request(instance.socket_path, {"op": "shutdown"})
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestWireFormat:
    def test_job_round_trips_through_the_wire_dict(self):
        job = Job(
            name="w",
            design="fp_sub",
            phases=(("structural",), ("assume", "narrowing")),
            budget=Budget(time_s=2.0, iters=9),
            **FAST,
        )
        assert job_from_dict(job_to_dict(job)) == job

    def test_unknown_job_fields_fail_loudly(self):
        payload = job_to_dict(Job(name="w", design="fp_sub"))
        payload["exploit"] = True
        with pytest.raises(TypeError):
            job_from_dict(payload)

    def test_local_only_fields_stay_off_the_wire(self):
        job = Job(name="w", design="fp_sub")
        assert not set(job_to_dict(job)) & set(LOCAL_ONLY_FIELDS)
        for name in LOCAL_ONLY_FIELDS:
            with pytest.raises(ValueError, match="local-only"):
                job_from_dict({**job_to_dict(job), name: None})
        with pytest.raises(ValueError, match="local-only"):
            job_to_dict(replace(job, save_egraph="out.egraph"))


class TestDaemonProtocol:
    def test_ping_reports_the_tenant_roster(self, daemon):
        reply = request(daemon.socket_path, {"op": "ping"})
        assert reply == {"ok": True, "tenants": ["team-a", "team-b"]}

    def test_submit_executes_and_result_is_a_run_record(self, daemon):
        job = Job(name="e2e", design="lzc_example", verify=True, **FAST)
        reply = request(
            daemon.socket_path,
            {"op": "submit", "tenant": "team-a", "job": job_to_dict(job)},
        )
        assert reply["ok"] and reply["job"] == "e2e"
        record = wait_for_result(daemon.socket_path, reply["ticket"])
        assert isinstance(record, RunRecord)
        assert record.status == "ok" and record.verified is True
        assert record.tenant == "team-a"
        assert record.queue_wait_s >= 0.0

    def test_malformed_requests_do_not_kill_the_daemon(self, daemon):
        bad = request(daemon.socket_path, {"op": "submit", "tenant": "team-a"})
        assert not bad["ok"] and "KeyError" in bad["error"]
        assert request(daemon.socket_path, {"op": "nope"})["ok"] is False
        assert request(daemon.socket_path, {"op": "ping"})["ok"]

    def test_artifact_paths_are_refused_at_the_socket(self, daemon, tmp_path):
        target = tmp_path / "planted.egraph"
        payload = {
            **job_to_dict(Job(name="p", design="lzc_example", **FAST)),
            "save_egraph": str(target),
        }
        reply = request(
            daemon.socket_path,
            {"op": "submit", "tenant": "team-a", "job": payload},
        )
        assert not reply["ok"] and "save_egraph" in reply["error"]
        daemon.queue.drain()
        assert not target.exists() and not daemon.queue.submissions

    def test_status_polls_events_incrementally(self, daemon):
        job = Job(name="st", design="lzc_example", **FAST)
        ticket = request(
            daemon.socket_path,
            {"op": "submit", "tenant": "team-b", "job": job_to_dict(job)},
        )["ticket"]
        wait_for_result(daemon.socket_path, ticket)
        reply = request(daemon.socket_path, {"op": "status"})
        assert reply["submissions"][0]["status"] == "done"
        kinds = [e["kind"] for e in reply["events"]]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        again = request(
            daemon.socket_path, {"op": "status", "cursor": reply["cursor"]}
        )
        assert again["events"] == []


class TestAcceptance:
    """The PR's end-to-end bar, verbatim from the issue."""

    def test_two_tenants_fair_share_cache_hit_and_event_coverage(self, daemon):
        queue = daemon.queue
        job_a = Job(name="tenant-a-job", design="lzc_example",
                    budget=Budget(iters=40), **FAST)
        job_b = Job(name="tenant-b-job", design="fp_sub",
                    budget=Budget(iters=40), iter_limit=2, node_limit=8_000)
        tickets = {}
        for tenant, job in (("team-a", job_a), ("team-b", job_b)):
            tickets[tenant] = request(
                daemon.socket_path,
                {"op": "submit", "tenant": tenant, "job": job_to_dict(job)},
            )["ticket"]
        first_a = wait_for_result(daemon.socket_path, tickets["team-a"])
        first_b = wait_for_result(daemon.socket_path, tickets["team-b"])
        assert first_a.status == "ok" and first_b.status == "ok"

        # Neither tenant collectively overspends its fair share of the one
        # service pool (ledger-checked: settled spend within allocation).
        ledger = request(daemon.socket_path, {"op": "stats"})["ledger"]
        for tenant in ("team-a", "team-b"):
            entry = ledger[tenant]
            allocated_s = entry["allocated"]["time_s"]
            assert entry["spent"]["time_s"] <= allocated_s, entry

        # A duplicate submission (same content, new name, other tenant)
        # returns a cache hit without running Saturate.
        dup = request(
            daemon.socket_path,
            {
                "op": "submit",
                "tenant": "team-b",
                "job": job_to_dict(
                    Job(name="dup-of-a", design="lzc_example",
                        budget=Budget(iters=40), **FAST)
                ),
            },
        )["ticket"]
        hit = wait_for_result(daemon.socket_path, dup)
        assert hit.cache_hit is True
        kinds = [e.kind for e in queue.feed.for_job("dup-of-a")]
        assert "running" not in kinds  # no Saturate (or any stage) ran
        assert ledger["team-b"]["jobs"] == 1  # still only the original run

        # The streamed event feed explains >= 95% of each executed job's
        # wall clock.
        assert queue.feed.coverage("tenant-a-job") >= 0.95
        assert queue.feed.coverage("tenant-b-job") >= 0.95

    def test_graceful_shutdown_drains_backlog_and_persists_cache(
        self, daemon
    ):
        for i in range(3):
            request(
                daemon.socket_path,
                {
                    "op": "submit",
                    "tenant": "team-a",
                    "job": job_to_dict(
                        Job(name=f"drain-{i}", design="lzc_example",
                            iter_limit=i + 1, node_limit=8_000)
                    ),
                },
            )
        reply = request(daemon.socket_path, {"op": "shutdown"}, timeout=60.0)
        assert reply["ok"]
        assert reply["persisted"] >= 1
        # Every submission finished before the daemon stopped.
        assert all(
            sub.status in ("done", "error")
            for sub in daemon.queue.submissions
        )
        assert (daemon.socket_path.parent / "cache.json").exists()
        # A reborn cache serves yesterday's results.
        reborn = ResultCache(path=daemon.socket_path.parent / "cache.json")
        assert reborn.load() >= 1

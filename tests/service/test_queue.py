"""Fair-share queue: tenant ledgers, the match-quota phase, event feeds."""

from __future__ import annotations

import os

import repro.pipeline.session as session_mod
from repro.pipeline import Budget, Job, execute_job
from repro.service import (
    EventFeed,
    OptimizationQueue,
    ResultCache,
    TenantShare,
    events_from_record,
)

FAST = dict(iter_limit=2, node_limit=8_000)

TENANTS = [TenantShare("team-a"), TenantShare("team-b")]


def _job(name: str, design: str = "lzc_example", **kwargs) -> Job:
    knobs = {**FAST, **kwargs}
    return Job(name=name, design=design, **knobs)


class TestSubmission:
    def test_unknown_tenant_is_rejected(self):
        queue = OptimizationQueue(TENANTS)
        try:
            queue.submit(_job("j"), "nobody")
        except KeyError as err:
            assert "unknown tenant" in str(err)
        else:
            raise AssertionError("expected KeyError")

    def test_submit_is_immediate_and_emits_queued(self):
        queue = OptimizationQueue(TENANTS)
        sub = queue.submit(_job("j1"), "team-a")
        assert sub.status == "queued"
        assert [e.kind for e in queue.feed.for_job("j1")] == ["queued"]
        assert len(queue.pending("team-a")) == 1

    def test_duplicate_tenants_are_rejected(self):
        try:
            OptimizationQueue([TenantShare("a"), TenantShare("a")])
        except ValueError as err:
            assert "duplicate" in str(err)
        else:
            raise AssertionError("expected ValueError")


class TestFairShare:
    def test_tenant_ledgers_stay_within_their_allocation(self):
        """The fairness contract: with a service-level quota, no tenant's
        settled spend exceeds its allocated share (iters settle exactly at
        iteration boundaries, so the check is exact, not approximate)."""
        queue = OptimizationQueue(TENANTS, budget=Budget(iters=8))
        limits = iter((3, 4, 5, 6))  # distinct content: no cache hits
        for tenant in ("team-a", "team-b"):
            for i in range(2):
                queue.submit(
                    _job(f"{tenant}-{i}", iter_limit=next(limits)), tenant
                )
        records = queue.drain()
        assert len(records) == 4
        ledger = queue.ledger()
        for tenant, entry in ledger.items():
            assert entry["spent"]["iters"] <= entry["allocated"]["iters"], (
                tenant,
                entry,
            )
            assert entry["jobs"] == 2

    def test_rounds_interleave_tenants(self):
        queue = OptimizationQueue(TENANTS)
        queue.submit(_job("a-0"), "team-a")
        queue.submit(_job("a-1"), "team-a")
        queue.submit(_job("b-0"), "team-b")
        records = queue.drain()
        # Round 1 runs one job per tenant; a-1 waits for round 2.
        assert [r.job for r in records] == ["a-0", "b-0", "a-1"]

    def test_weighted_tenants_get_weighted_ceilings(self):
        queue = OptimizationQueue(
            [TenantShare("small"), TenantShare("large", weight=3.0)],
            budget=Budget(iters=40),
        )
        ledger = queue.ledger()
        assert ledger["large"]["allocated"]["iters"] == 30
        assert ledger["small"]["allocated"]["iters"] == 10

    def test_match_quota_phase_rations_the_tenant_allowance(self):
        """The allot phase slices ``Budget.matches`` adaptively: a tenant
        with two pending jobs hands the first at most ceil(half) of its
        match allowance, and total settled matches never exceed it."""
        queue = OptimizationQueue(
            [TenantShare("solo")], budget=Budget(matches=1000)
        )
        queue.submit(_job("m-0"), "solo")
        queue.submit(_job("m-1"), "solo")
        first = queue._allot(queue.pending("solo")[0])
        assert first.budget.matches == 500
        records = queue.drain()
        assert all(r.status == "ok" for r in records)
        entry = queue.ledger()["solo"]
        assert 0 < entry["spent"]["matches"] <= 1000


class TestCacheIntegration:
    def test_duplicate_submission_hits_without_running(self):
        queue = OptimizationQueue(TENANTS, budget=Budget(time_s=30.0))
        queue.submit(_job("first"), "team-a")
        first = queue.drain()[0]
        assert first.status == "ok" and not first.cache_hit

        queue.submit(_job("second"), "team-b")
        second = queue.drain()[0]
        assert second.cache_hit is True
        assert second.job == "second" and second.tenant == "team-b"
        # The hit never touched the pipeline: team-b settled no run, and
        # its feed shows no running stage (in particular, no Saturate).
        assert queue.ledger()["team-b"]["jobs"] == 0
        assert queue.ledger()["team-b"]["cache_hits"] == 1
        kinds = [e.kind for e in queue.feed.for_job("second")]
        assert kinds == ["queued", "cached", "done"]

    def test_renamed_job_with_same_content_still_hits(self):
        cache = ResultCache()
        queue = OptimizationQueue(TENANTS, cache=cache)
        queue.submit(_job("original"), "team-a")
        queue.drain()
        queue.submit(_job("rebranded"), "team-a")
        assert queue.drain()[0].cache_hit is True
        assert cache.stats()["hits"] == 1

    def test_error_records_do_not_poison_the_cache(self):
        queue = OptimizationQueue(TENANTS)
        queue.submit(_job("bad", design="lzc_example", shards=2,
                          phases=(("structural",),)), "team-a")
        first = queue.drain()[0]
        assert first.status == "error"
        queue.submit(_job("retry", shards=2, phases=(("structural",),)),
                     "team-a")
        assert queue.drain()[0].cache_hit is False


class TestWarmStartTier:
    """A cache *miss* with a known design label still warm-starts from the
    family's persisted e-graph — the second artifact tier beside records."""

    EDITED = """
module lzc_example (
  input [7:0] x,
  input [7:0] y,
  output [3:0] out,
  output [8:0] out2
);
  wire [8:0] sum = x + y;
  reg [3:0] lz;
  always @(*) begin
    casez (sum)
      9'b1????????: lz = 0;
      9'b01???????: lz = 1;
      9'b001??????: lz = 2;
      9'b0001?????: lz = 3;
      9'b00001????: lz = 4;
      9'b000001???: lz = 5;
      9'b0000001??: lz = 6;
      9'b00000001?: lz = 7;
      9'b000000001: lz = 8;
      default: lz = 9;
    endcase
  end
  assign out = lz;
  assign out2 = sum;
endmodule
"""

    def _queue(self, tmp_path):
        return OptimizationQueue(
            TENANTS, cache=ResultCache(path=tmp_path / "cache.json")
        )

    def test_first_run_saves_an_artifact(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.submit(_job("first"), "team-a")
        record = queue.drain()[0]
        assert record.status == "ok"
        assert record.warm_start == ""  # nothing to seed from yet
        assert queue.cache.stats()["egraph_artifacts"] == 1

    def test_edited_design_resubmission_warm_starts(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.submit(_job("first"), "team-a")
        assert queue.drain()[0].status == "ok"

        # Edited revision, same label: the record cache misses (the content
        # digest changed), but the artifact tier hits the family.
        queue.submit(_job("edited", source=self.EDITED), "team-a")
        record = queue.drain()[0]
        assert record.status == "ok"
        assert record.cache_hit is False
        assert record.warm_start.startswith("hit:")
        assert record.warm_start.endswith(":delta")

    def test_pathless_cache_never_attaches_artifacts(self):
        queue = OptimizationQueue(TENANTS, cache=ResultCache())
        queue.submit(_job("first"), "team-a")
        record = queue.drain()[0]
        assert record.status == "ok" and record.warm_start == ""

    def test_sharded_jobs_bypass_the_warm_tier(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.submit(_job("sharded", design="stress_wide", shards=2), "team-a")
        record = queue.drain()[0]
        assert record.status == "ok" and record.warm_start == ""
        assert queue.cache.stats()["egraph_artifacts"] == 0

    def test_explicit_artifact_paths_are_respected(self, tmp_path):
        queue = self._queue(tmp_path)
        pinned = tmp_path / "pinned.egraph"
        queue.submit(_job("pinning", save_egraph=str(pinned)), "team-a")
        record = queue.drain()[0]
        assert record.status == "ok"
        assert pinned.exists()
        # The queue did not override the submitter's choice with the
        # family path.
        assert queue.cache.stats()["egraph_artifacts"] == 0


class TestEventFeed:
    def test_executed_job_feed_covers_the_wall(self):
        feed = EventFeed()
        queue = OptimizationQueue(
            TENANTS, budget=Budget(time_s=30.0), feed=feed
        )
        queue.submit(_job("covered"), "team-a")
        record = queue.drain()[0]
        assert record.status == "ok"
        kinds = [e.kind for e in feed.for_job("covered")]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        assert "running" in kinds
        assert feed.coverage("covered") >= 0.95

    def test_unbudgeted_record_replays_spend_for_every_stage(self):
        """Every run is governed: a job without a budget still ledgers
        each stage, so its replayed feed says what every stage spent."""
        record = execute_job(_job("unbudgeted", verify=True))
        assert record.status == "ok", record.error
        running = [e for e in events_from_record(record) if e.kind == "running"]
        assert [e.stage for e in running] == list(record.stage_timings)
        assert all(e.spend for e in running), running
        ledgered = sum(
            row["spent"]["time_s"] for row in record.budget["stages"].values()
        )
        assert ledgered >= 0.9 * record.budget["spent"]["time_s"]

    def test_poll_cursor_sees_only_fresh_events(self):
        queue = OptimizationQueue(TENANTS)
        queue.submit(_job("p-0"), "team-a")
        cursor, first = queue.feed.poll(0)
        assert [e.kind for e in first] == ["queued"]
        queue.drain()
        cursor, fresh = queue.feed.poll(cursor)
        assert fresh and all(e.kind != "queued" for e in fresh)
        assert queue.feed.poll(cursor) == (cursor, [])

    def test_queue_wait_is_stamped_from_the_service_clock(self):
        times = iter([10.0, 12.5, 13.0, 20.0, 30.0, 40.0])
        queue = OptimizationQueue(TENANTS, clock=lambda: next(times, 50.0))
        queue.submit(_job("waited"), "team-a")  # submitted_at = 10.0
        record = queue.drain()[0]
        assert record.queue_wait_s == 2.5  # dispatched at 12.5
        events = events_from_record(record)
        assert events[0].kind == "queued" and events[0].wall_s == 2.5


class TestDispatch:
    """A round dispatches in-process, whatever the machine's CPU count."""

    def test_dispatch_stays_in_process(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("dispatch must not build a process pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(session_mod, "ProcessPoolExecutor", boom)
        queue = OptimizationQueue(TENANTS)
        queue.submit(_job("a-0"), "team-a")
        queue.submit(_job("b-0"), "team-b")
        records = queue.drain()
        assert [r.status for r in records] == ["ok", "ok"]

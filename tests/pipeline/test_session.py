"""Batch sessions over the registry and the RunRecord trajectory format."""

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro.pipeline.session as session_mod
from repro.designs import DESIGNS
from repro.pipeline import Budget, Job, RunRecord, Session, execute_job

#: Settings under which every registry design (including the wide
#: ``stress_wide``) completes its iterations instead of tripping the node
#: limit: a mid-apply node-limit stop lands at a hash-order-dependent cutoff,
#: so only completed runs are bit-reproducible across *processes* (which the
#: parallel-vs-serial comparison below relies on).
FAST = dict(iter_limit=2, node_limit=8_000)

#: Fields that are deterministic across runs of the same job (timings and
#: whole-run wall time are not).
STABLE_FIELDS = (
    "job",
    "design",
    "output",
    "status",
    "stop_reason",
    "iterations",
    "nodes",
    "classes",
    "original_delay",
    "original_area",
    "optimized_delay",
    "optimized_area",
    "verified",
)


def stable(record: RunRecord) -> tuple:
    return tuple(getattr(record, name) for name in STABLE_FIELDS)


_REAL_EXECUTE_JOB = session_mod.execute_job


def _execute_unless_doomed(job: Job) -> RunRecord:
    """``execute_job``, except that a job named ``doomed`` kills its worker
    process outright (as an OOM kill would).  Module level, so a pool can
    pickle it by name."""
    if job.name == "doomed":
        os._exit(1)
    return _REAL_EXECUTE_JOB(job)


def _cheap_jobs(count: int) -> list[Job]:
    return [
        Job(name=f"j{k}", design="lzc_example", iter_limit=1, node_limit=8_000)
        for k in range(count)
    ]


class CountingExecutor(session_mod.ProcessPoolExecutor):
    """A real process pool that logs each construction's ``max_workers``."""

    built: list = []

    def __init__(self, *args, **kwargs):
        CountingExecutor.built.append(kwargs.get("max_workers"))
        super().__init__(*args, **kwargs)


@pytest.fixture
def counting_pool(monkeypatch):
    """The pool sizes ``Session.run`` builds, in order."""
    built: list = []
    monkeypatch.setattr(CountingExecutor, "built", built)
    monkeypatch.setattr(session_mod, "ProcessPoolExecutor", CountingExecutor)
    return built


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if ``Session.run`` constructs a process pool."""

    def boom(*args, **kwargs):
        raise AssertionError("this run must not build a process pool")

    monkeypatch.setattr(session_mod, "ProcessPoolExecutor", boom)


def _machine(monkeypatch, cpus: int, start_method: str = "fork") -> None:
    """Pretend this process may use ``cpus`` CPUs and pools start workers
    by ``start_method`` (only the automatic pool size reads it)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(
        multiprocessing, "get_start_method", lambda allow_none=False: start_method
    )


class TestSessionBatch:
    def test_batch_covers_every_registry_design(self):
        session = Session.for_designs(**FAST)
        records = session.run()
        assert len(records) == len(DESIGNS) >= 4
        assert [r.job for r in records] == sorted(DESIGNS)
        for record in records:
            assert record.status == "ok", record.error
            assert record.stop_reason
            assert record.optimized_delay <= record.original_delay
            assert set(record.stage_timings) >= {"ingest", "saturate", "extract"}

    def test_parallel_run_uses_process_workers(self, counting_pool):
        session = Session.for_designs(**FAST)
        parallel = session.run(workers=2)
        assert counting_pool == [2], "workers=2 must go through the process pool"

        serial = session.run(workers=1)
        assert counting_pool == [2], "workers=1 must stay in-process"
        assert [stable(r) for r in parallel] == [stable(r) for r in serial]

    def test_serial_run_stays_in_process(self, no_pool):
        records = Session.for_designs(["lzc_example"], **FAST).run()
        assert records[0].status == "ok"

    def test_verify_flag_fills_verdicts(self):
        records = Session.for_designs(["lzc_example"], verify=True, **FAST).run()
        assert records[0].verified is True

    def test_failed_job_yields_error_record(self):
        records = Session([Job(name="bad", design="no-such-design")]).run()
        assert records[0].status == "error"
        assert "no-such-design" in records[0].error
        # Error records serialize like any other.
        assert RunRecord.from_json(records[0].to_json()) == records[0]

    def test_phased_job_schedule(self):
        job = Job(
            name="phased",
            design="lzc_example",
            phases=(("structural",), ("assume", "condition", "narrowing")),
            phase_iters=3,
            **FAST,
        )
        record = execute_job(job)
        assert record.status == "ok", record.error
        labels = set(record.stage_timings)
        assert "saturate:structural" in labels
        assert "saturate:assume+condition+narrowing" in labels


class TestPoolPolicy:
    """``workers=None`` fans out over one process per usable CPU, capped at
    the number of jobs; everything that cannot use a pool runs in-process."""

    def test_default_builds_one_pool_per_usable_cpu(self, monkeypatch, counting_pool):
        _machine(monkeypatch, 2)
        records = Session(_cheap_jobs(6)).run()
        assert counting_pool == [2]
        assert [r.job for r in records] == [f"j{k}" for k in range(6)]
        assert all(r.status == "ok" for r in records)

    def test_pool_never_outnumbers_the_jobs(self, monkeypatch, counting_pool):
        _machine(monkeypatch, 8)
        Session(_cheap_jobs(3)).run()
        assert counting_pool == [3]

    def test_one_usable_cpu_stays_in_process(self, monkeypatch, no_pool):
        _machine(monkeypatch, 1)
        records = Session(_cheap_jobs(3)).run()
        assert all(r.status == "ok" for r in records)

    def test_workers_one_stays_in_process(self, monkeypatch, no_pool):
        _machine(monkeypatch, 4)
        assert Session(_cheap_jobs(2), workers=1).run()[1].status == "ok"
        assert Session(_cheap_jobs(2)).run(workers=1)[1].status == "ok"

    def test_daemonic_process_stays_in_process(self, monkeypatch, no_pool):
        _machine(monkeypatch, 2)
        monkeypatch.setattr(session_mod, "_nested_pool_available", lambda: False)
        assert all(r.status == "ok" for r in Session(_cheap_jobs(2)).run())

    def test_pool_that_cannot_start_runs_in_process(self, monkeypatch):
        def no_processes(*args, **kwargs):
            raise OSError("process limit reached")

        _machine(monkeypatch, 2)
        monkeypatch.setattr(session_mod, "ProcessPoolExecutor", no_processes)
        records = Session(_cheap_jobs(2)).run()
        assert [r.status for r in records] == ["ok", "ok"]

    def test_workers_below_one_are_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            Session(_cheap_jobs(2), workers=0)
        with pytest.raises(ValueError, match="at least 1"):
            Session(_cheap_jobs(2)).run(workers=-1)

    def test_spawning_platform_pools_only_when_asked(self, monkeypatch, counting_pool):
        _machine(monkeypatch, 2, start_method="spawn")
        assert all(r.status == "ok" for r in Session(_cheap_jobs(3)).run())
        assert counting_pool == [], "an unguarded script would fail every job"
        Session(_cheap_jobs(3), workers=2).run()
        assert counting_pool == [2]

    def test_pool_broken_while_queueing_fails_the_unqueued_jobs(self, monkeypatch):
        sizes = []

        class BreaksOnJ1(session_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                sizes.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

            def submit(self, fn, job):
                if job.name == "j1":
                    raise BrokenProcessPool("a worker died")
                return super().submit(fn, job)

        monkeypatch.setattr(session_mod, "ProcessPoolExecutor", BreaksOnJ1)
        records = Session(_cheap_jobs(3), workers=2).run()
        assert sizes == [2], "nothing reruns"
        assert [(r.job, r.status) for r in records] == [
            ("j0", "ok"), ("j1", "error"), ("j2", "error")
        ]
        assert records[2].error == "BrokenProcessPool: a worker died"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched execute_job",
    )
    def test_dead_worker_yields_error_records_not_exception(self, monkeypatch):
        monkeypatch.setattr(session_mod, "execute_job", _execute_unless_doomed)
        jobs = _cheap_jobs(3)
        jobs.insert(1, Job(name="doomed", design="lzc_example"))
        records = Session(jobs, workers=2).run()
        assert [r.job for r in records] == ["j0", "doomed", "j1", "j2"]
        assert records[1].status == "error"
        # The dead worker breaks the pool: every job that had not finished
        # by then fails with it, naming the cause; none is rerun.
        for record in records:
            assert record.status == "ok" or record.error.startswith(
                "BrokenProcessPool: "
            ), record.error


class TestShardedJobs:
    def test_sharded_job_records_shard_metadata(self):
        job = Job(name="sh", design="stress_wide", auto_shard_nodes=1, **FAST)
        record = execute_job(job)
        assert record.status == "ok", record.error
        assert record.shards == 8  # one shard per stress_wide output
        assert set(record.shard_walls) == {f"out{k}" for k in range(8)}
        assert all(wall > 0 for wall in record.shard_walls.values())

    def test_monolithic_record_has_no_shard_metadata(self):
        record = execute_job(Job(name="mono", design="lzc_example", **FAST))
        assert record.shards == 0 and record.shard_walls == {}

    def test_auto_threshold_leaves_small_designs_monolithic(self):
        """Auto-split must not engage for single-output designs — the run
        goes through the shard machinery as one whole-design shard."""
        job = Job(name="auto", design="lzc_example", auto_shard_nodes=1, **FAST)
        record = execute_job(job)
        assert record.status == "ok", record.error
        assert record.shards == 1

    def test_clustered_job_bounds_shard_count(self):
        job = Job(name="cl", design="stress_wide", shards=3, **FAST)
        record = execute_job(job)
        assert record.status == "ok", record.error
        assert 1 <= record.shards <= 3

    def test_sharded_matches_monolithic_on_completed_runs(self):
        """Under limits where everything completes, sharding a wide design
        changes nothing about the extracted costs."""
        mono = execute_job(Job(name="m", design="stress_wide", **FAST))
        sharded = execute_job(
            Job(name="s", design="stress_wide", auto_shard_nodes=1, **FAST)
        )
        assert (sharded.optimized_delay, sharded.optimized_area) == (
            mono.optimized_delay,
            mono.optimized_area,
        )

    def test_shard_json_roundtrip_exact(self):
        record = execute_job(
            Job(name="rt", design="stress_wide", auto_shard_nodes=1, **FAST)
        )
        clone = RunRecord.from_json(record.to_json())
        assert clone == record
        assert clone.shard_walls == record.shard_walls
        assert clone.to_json() == record.to_json()

    def test_from_dict_defaults_shard_fields_for_legacy_records(self):
        """Pre-shard trajectory files keep loading (schema is additive)."""
        record = RunRecord.from_dict({"job": "x", "design": "y"})
        assert record.shards == 0 and record.shard_walls == {}
        assert record.shard_pool == "" and record.budget == {}

    def test_budget_ledger_fields_roundtrip_exact(self):
        """The resource-governance additions to the record schema (the
        ``budget`` ledger block and ``shard_pool``) survive JSON exactly."""
        record = execute_job(
            Job(
                name="rt-budget",
                design="stress_wide",
                auto_shard_nodes=1,
                budget=Budget(time_s=5.0),
                **FAST,
            )
        )
        assert record.status == "ok", record.error
        assert record.shard_pool == "inline"
        assert record.budget["allocated"] == {"time_s": 5.0}
        assert record.budget["stages"]
        clone = RunRecord.from_json(record.to_json())
        assert clone == record
        assert clone.budget == record.budget
        assert clone.shard_pool == record.shard_pool
        assert clone.to_json() == record.to_json()


class TestRunRecordSerialization:
    def test_json_roundtrip_exact(self):
        record = execute_job(Job(name="rt", design="lzc_example", **FAST))
        clone = RunRecord.from_json(record.to_json())
        assert clone == record
        # And the JSON itself is stable under a second round trip.
        assert clone.to_json() == record.to_json()

    def test_json_is_plain_data(self):
        record = execute_job(Job(name="plain", design="lzc_example", **FAST))
        payload = json.loads(record.to_json())
        assert payload["design"] == "lzc_example"
        assert isinstance(payload["stage_timings"], dict)

    def test_from_dict_tolerates_unknown_keys(self):
        """Old trajectory files with extra fields keep loading."""
        record = RunRecord.from_dict(
            {"job": "x", "design": "y", "legacy_field": 123}
        )
        assert record.job == "x" and record.design == "y"

    def test_service_provenance_fields_roundtrip(self):
        """``tenant``/``cache_hit``/``queue_wait_s`` survive JSON exactly."""
        record = execute_job(Job(name="svc", design="lzc_example", **FAST))
        record.tenant = "team-a"
        record.cache_hit = True
        record.queue_wait_s = 0.125
        clone = RunRecord.from_json(record.to_json())
        assert clone == record
        assert (clone.tenant, clone.cache_hit, clone.queue_wait_s) == (
            "team-a",
            True,
            0.125,
        )
        assert clone.to_json() == record.to_json()

    def test_from_dict_defaults_service_fields_for_legacy_records(self):
        """Pre-service trajectory rows keep loading (schema is additive)."""
        record = RunRecord.from_dict({"job": "x", "design": "y"})
        assert record.tenant == ""
        assert record.cache_hit is False
        assert record.queue_wait_s == 0.0

    def test_bench_perf_entries_still_load(self):
        """Every record in the checked-in perf trajectory parses."""
        path = Path(__file__).resolve().parents[2] / "BENCH_perf.json"
        if not path.exists():
            pytest.skip("no BENCH_perf.json in this checkout")
        payload = json.loads(path.read_text())
        rows = payload["records"] if isinstance(payload, dict) else payload
        assert rows
        for row in rows:
            record = RunRecord.from_dict(row)
            assert record.design
            # Old rows predate the service schema; defaults fill in.
            assert record.cache_hit is False

    def test_add_builds_jobs(self):
        session = Session()
        session.add(design="lzc_example", iter_limit=2)
        job = session.add(Job(name="explicit", design="fp_sub"))
        assert [j.name for j in session.jobs] == ["lzc_example", "explicit"]
        assert job.design == "fp_sub"


class TestSessionBudgetCeiling:
    """A session-level budget is a job-level ceiling across the batch."""

    def test_serial_session_budget_governs_every_job(self):
        session = Session.for_designs(
            ["lzc_example", "float_to_unorm"],
            workers=1,
            budget=Budget(time_s=30.0),
            **FAST,
        )
        records = session.run()
        assert all(r.status == "ok" for r in records)
        for record in records:
            assert record.budget, "every job must carry a governed ledger"
            assert record.budget["allocated"]["time_s"] <= 30.0
            assert "saturate" in record.budget["stages"]

    def test_serial_adaptive_ceiling_recycles_between_jobs(self):
        """The second job's window reflects what the first actually left."""
        session = Session.for_designs(
            ["lzc_example", "float_to_unorm"],
            workers=1,
            budget=Budget(time_s=30.0),
            budget_policy="adaptive",
            **FAST,
        )
        first, second = session.run()
        # Job 1 was offered 15s (fair half) and spent milliseconds; job 2's
        # allocation must therefore exceed the up-front half split.
        assert first.budget["allocated"]["time_s"] <= 15.0 + 1e-6
        assert second.budget["allocated"]["time_s"] > 15.0

    def test_default_budgeted_batch_recycles_in_process(self, monkeypatch, no_pool):
        """Without explicit workers a budgeted batch stays in-process even
        with spare CPUs, so later jobs still get the slack earlier ones left
        instead of racing one deadline from the back of a pool's queue."""
        _machine(monkeypatch, 2)
        session = Session(_cheap_jobs(3), budget=Budget(time_s=30.0))
        first, second, third = session.run()
        assert first.budget["allocated"]["time_s"] <= 10.0 + 1e-6
        assert second.budget["allocated"]["time_s"] > 10.0
        assert third.budget["allocated"]["time_s"] > 10.0

    def test_parallel_session_budget_shares_one_deadline(self, counting_pool):
        session = Session.for_designs(
            ["lzc_example", "float_to_unorm"],
            budget=Budget(time_s=30.0),
            **FAST,
        )
        records = session.run(workers=2)
        assert counting_pool == [2]
        assert all(r.status == "ok" for r in records)
        assert all(r.budget for r in records)

    def test_job_budget_intersects_with_session_ceiling(self):
        session = Session(
            [
                Job(
                    name="tight",
                    design="lzc_example",
                    budget=Budget(iters=1),
                    **FAST,
                )
            ],
            budget=Budget(time_s=30.0),
        )
        (record,) = session.run()
        assert record.status == "ok", record.error
        # The job's own iteration quota survived the session split.
        assert record.iterations == 1

    def test_jobs_with_budgets_stay_picklable(self):
        import pickle

        job = Job(name="p", design="lzc_example", budget=Budget(time_s=1.0))
        assert pickle.loads(pickle.dumps(job)) == job


@pytest.mark.slow
class TestSessionSlow:
    def test_parallel_full_registry_with_verification(self):
        records = Session.for_designs(verify=True, iter_limit=4).run()
        assert all(r.status == "ok" for r in records)
        assert all(r.verified in (True, None) for r in records)

"""Cache-correctness for the solver subsystem's new schedule knobs.

A greedy record must never satisfy an ilp request (and vice versa), and a
run with a Pareto characterization returns a different artifact than one
without — so ``extract_objective`` and ``pareto`` join the result-cache key.
The warm-start schedule key separates them too, keeping persisted e-graph
artifacts' bench provenance per-objective.
"""

from __future__ import annotations

from dataclasses import replace

from repro.pipeline import Job, execute_job
from repro.pipeline import job_schedule_key
from repro.service import ResultCache, job_cache_key


class TestObjectiveInKeys:
    def test_objective_and_pareto_change_the_cache_key(self):
        base = Job(name="a", design="lzc_example")
        for change in (
            dict(extract_objective="ilp"),
            dict(pareto="epsilon"),
            dict(pareto="weighted"),
            dict(extract_objective="ilp", pareto="epsilon"),
        ):
            assert job_cache_key(base) != job_cache_key(
                replace(base, **change)
            ), change
        # Pareto modes are distinct requests, not one flag.
        assert job_cache_key(
            replace(base, pareto="epsilon")
        ) != job_cache_key(replace(base, pareto="weighted"))

    def test_objective_separates_warm_start_schedules(self):
        base = Job(name="a", design="lzc_example")
        assert job_schedule_key(base) != job_schedule_key(
            replace(base, extract_objective="ilp")
        )

    def test_two_objectives_fill_two_cache_entries(self):
        """The regression the satellite pins: submit the same design under
        both objectives — each run misses, each stores, and each key gets
        its *own* record back (the ilp one with ilp provenance)."""
        cache = ResultCache(capacity=8)
        greedy_job = Job(name="lzc", design="lzc_example", iter_limit=2)
        ilp_job = replace(greedy_job, extract_objective="ilp")

        assert cache.get(job_cache_key(greedy_job)) is None
        greedy_record = execute_job(greedy_job)
        cache.put(job_cache_key(greedy_job), greedy_record)

        # The ilp request must miss despite the identical design/knobs.
        assert cache.get(job_cache_key(ilp_job)) is None
        ilp_record = execute_job(ilp_job)
        cache.put(job_cache_key(ilp_job), ilp_record)

        hit_greedy = cache.get(job_cache_key(greedy_job))
        hit_ilp = cache.get(job_cache_key(ilp_job))
        assert hit_greedy is not None and hit_ilp is not None
        assert hit_greedy.extract_objective == "greedy"
        assert hit_ilp.extract_objective == "ilp"
        assert hit_greedy.cache_hit and hit_ilp.cache_hit

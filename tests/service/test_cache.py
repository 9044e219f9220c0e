"""The content-addressed result cache: canonical keys and the two tiers.

The canonicalization property the service leans on: a design resubmitted
after an alpha-renaming of its inputs or a reordering of commutative
operands is *the same problem* and must hit; any semantic change (a
constant, a width, an operator, a range constraint) must miss.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalSet
from repro.ir import gt, ops, var
from repro.ir.expr import Expr, const
from repro.pipeline import Budget, Job, RunRecord, execute_job
from repro.service import (
    ResultCache,
    budget_class,
    canonical_digest,
    job_cache_key,
    job_digest,
)
from repro.synth.cost import weighted_key

FAST = dict(iter_limit=2, node_limit=8_000)

NAMES = ("x", "y", "z", "w")

_LEAVES = st.one_of(
    st.sampled_from(NAMES).map(lambda n: var(n, 4)),
    st.integers(0, 7).map(const),
)

_BINARY_OPS = (ops.ADD, ops.MUL, ops.SUB, ops.MIN, ops.MAX, ops.AND)


def _branch(children):
    return st.tuples(st.sampled_from(_BINARY_OPS), children, children).map(
        lambda t: Expr(t[0], (), (t[1], t[2]))
    )


EXPRS = st.recursive(_LEAVES, _branch, max_leaves=12)

PERMUTATIONS = st.permutations(NAMES)


def _rename(expr: Expr, mapping: dict[str, str]) -> Expr:
    if expr.is_var:
        return var(mapping[expr.var_name], expr.var_width)
    kids = tuple(_rename(child, mapping) for child in expr.children)
    return Expr(expr.op, expr.attrs, kids)


def _commute(expr: Expr, flip) -> Expr:
    """Reorder commutative children by the draw stream ``flip``."""
    kids = tuple(_commute(child, flip) for child in expr.children)
    if expr.op in ops.COMMUTATIVE and len(kids) == 2 and flip():
        kids = (kids[1], kids[0])
    return Expr(expr.op, expr.attrs, kids)


class TestCanonicalDigestProperties:
    @settings(max_examples=100, deadline=None)
    @given(expr=EXPRS, perm=PERMUTATIONS, flips=st.randoms(use_true_random=False))
    def test_alpha_renaming_and_commuting_preserve_the_digest(
        self, expr, perm, flips
    ):
        mapping = dict(zip(NAMES, perm, strict=True))
        twisted = _commute(_rename(expr, mapping), lambda: flips.random() < 0.5)
        assert canonical_digest(expr) == canonical_digest(twisted)

    @settings(max_examples=100, deadline=None)
    @given(expr=EXPRS, perm=PERMUTATIONS)
    def test_renaming_carries_range_constraints_along(self, expr, perm):
        mapping = dict(zip(NAMES, perm, strict=True))
        ranges = {"x": IntervalSet.of(1, 5)}
        renamed_ranges = {mapping["x"]: IntervalSet.of(1, 5)}
        assert canonical_digest(expr, ranges) == canonical_digest(
            _rename(expr, mapping), renamed_ranges
        )

    @settings(max_examples=100, deadline=None)
    @given(expr=EXPRS, delta=st.integers(1, 3))
    def test_shifting_any_constant_changes_the_digest(self, expr, delta):
        consts = [n for n in expr.walk() if n.is_const]
        if not consts:
            return

        def bump(node: Expr) -> Expr:
            if node is consts[0]:
                return const(node.value + delta)
            return Expr(
                node.op, node.attrs, tuple(bump(c) for c in node.children)
            )

        assert canonical_digest(expr) != canonical_digest(bump(expr))

    def test_distinct_occurrence_profiles_are_distinct(self):
        x, y = var("x", 8), var("y", 8)
        assert canonical_digest(x + x) != canonical_digest(x + y)
        assert canonical_digest((x + y) + x) == canonical_digest((y + x) + x)

    def test_widths_and_noncommutative_order_are_semantic(self):
        assert canonical_digest(var("x", 8) + var("y", 8)) != canonical_digest(
            var("x", 8) + var("y", 4)
        )
        x, y = var("x", 8), var("y", 8)
        # x - y is alpha-equivalent to y - x (swap the names)...
        assert canonical_digest(x - y) == canonical_digest(y - x)
        # ...but not to x - x, and MUX arms don't commute.
        assert canonical_digest(x - y) != canonical_digest(x - x)

    def test_multi_output_hashing_ignores_output_names(self):
        x, y = var("x", 8), var("y", 8)
        assert canonical_digest({"a": x + y, "b": x - y}) == canonical_digest(
            {"p": x - y, "q": x + y}
        )


class TestCacheKeys:
    def test_budget_class_ignores_absolute_deadlines(self):
        assert budget_class(
            Budget(time_s=2.0, deadline=1000.0)
        ) == budget_class(Budget(time_s=2.0, deadline=2000.0))
        assert budget_class(Budget(time_s=2.0)) != budget_class(
            Budget(time_s=3.0)
        )
        assert budget_class(None) == "unbudgeted"

    def test_schedule_knobs_are_part_of_the_key(self):
        base = Job(name="a", design="lzc_example")
        assert job_cache_key(base) == job_cache_key(
            replace(base, name="renamed")
        )
        for change in (
            dict(iter_limit=1),
            dict(verify=True),
            dict(budget=Budget(iters=5)),
            dict(phases=(("structural",),)),
        ):
            assert job_cache_key(base) != job_cache_key(
                replace(base, **change)
            ), change

    def test_jobs_the_key_cannot_tell_apart_have_no_key(self):
        """The key digests neither designer splits nor the extraction key,
        so a job that sets one would be served another job's record."""
        base = Job(name="a", design="lzc_example")
        for change in (
            dict(splits=(gt(var("x", 8), 127),)),
            dict(extraction_key=weighted_key(1.0, 0.5)),
        ):
            with pytest.raises(ValueError, match="no record key"):
                job_cache_key(replace(base, **change))


_SWAP_SOURCE = """
module m(input [7:0] {x}, output [9:0] p, output [9:0] q);
  assign {first} = {x} + 8'd1;
  assign {second} = {x} * 2'd2;
endmodule
"""


class TestOutputBinding:
    """Regression: two designs computing the same *set* of functions under
    swapped output names share a canonical digest, so a key built on the
    digest alone served one design the other's per-output record (A's ``p``
    costs delay 6 / area 22.5, B's ``p`` delay 14 / area 108)."""

    def _job(self, first: str, second: str, x: str = "x") -> Job:
        source = _SWAP_SOURCE.format(first=first, second=second, x=x)
        return Job(name="m", design="m", source=source, **FAST)

    def test_swapped_outputs_get_distinct_keys(self):
        a, b = self._job("p", "q"), self._job("q", "p")
        assert job_digest(a) == job_digest(b)
        assert job_cache_key(a) != job_cache_key(b)

    def test_renamed_inputs_still_share_a_key(self):
        assert job_cache_key(self._job("p", "q")) == job_cache_key(
            self._job("p", "q", x="renamed")
        )


class TestResultCache:
    def test_cache_hit_round_trips_byte_identical(self):
        record = execute_job(
            Job(name="orig", design="lzc_example", budget=Budget(time_s=5.0), **FAST)
        )
        assert record.status == "ok", record.error
        cache = ResultCache()
        key = job_cache_key(Job(name="orig", design="lzc_example", **FAST))
        assert cache.put(key, record)
        hit = cache.get(key)
        assert hit is not None and hit.cache_hit is True
        # Apart from the cache-hit provenance flag, the served record is
        # byte-identical to the stored one.
        assert replace(hit, cache_hit=False).to_json() == record.to_json()
        # And the stored entry itself was not mutated by serving it.
        assert cache.get(key).to_json() == hit.to_json()

    def test_error_records_are_never_admitted(self):
        cache = ResultCache()
        bad = RunRecord(job="x", design="y", status="error", error="boom")
        assert not cache.put("k", bad)
        assert cache.get("k") is None
        assert cache.stats()["misses"] == 1

    def test_lru_evicts_the_coldest_entry(self):
        cache = ResultCache(capacity=2)
        for i in range(3):
            cache.put(f"k{i}", RunRecord(job=f"j{i}", design="d"))
        assert cache.get("k0") is None  # evicted
        assert cache.get("k2").job == "j2"

    def test_disk_tier_survives_a_restart(self, tmp_path):
        path = tmp_path / "cache.json"
        first = ResultCache(capacity=4, path=path)
        first.put("k", RunRecord(job="j", design="d", nodes=7))
        assert first.persist() == 1

        reborn = ResultCache(capacity=4, path=path)
        assert reborn.load() == 1
        hit = reborn.get("k")
        assert hit.nodes == 7 and hit.cache_hit is True
        # The promoted entry now also serves from memory.
        assert reborn.stats()["memory_entries"] == 1

    def test_persist_refreshes_stale_disk_entries(self, tmp_path):
        """The PR-8 regression: ``persist`` used ``setdefault``, so a
        same-key record updated in memory never reached disk.  Put, persist,
        put a fresher record under the same key, persist, reload: the disk
        tier must serve the fresher record."""
        path = tmp_path / "cache.json"
        cache = ResultCache(capacity=4, path=path)
        cache.put("k", RunRecord(job="j", design="d", nodes=1))
        assert cache.persist() == 1
        cache.put("k", RunRecord(job="j", design="d", nodes=2))
        assert cache.persist() == 1

        reborn = ResultCache(capacity=4, path=path)
        reborn.load()
        assert reborn.get("k").nodes == 2

    def test_corrupt_disk_tier_degrades_to_empty(self, tmp_path, caplog):
        """A torn write (pre-atomic-persist crash) must not kill startup."""
        path = tmp_path / "cache.json"
        good = ResultCache(capacity=4, path=path)
        good.put("k", RunRecord(job="j", design="d"))
        good.persist()
        path.write_text(path.read_text()[: len(path.read_text()) // 2])

        reborn = ResultCache(capacity=4, path=path)
        with caplog.at_level("WARNING", logger="repro.service.cache"):
            assert reborn.load() == 0
        assert "starting empty" in caplog.text
        assert reborn.get("k") is None
        # The tier is usable again: persisting rewrites a clean file.
        reborn.put("k2", RunRecord(job="j2", design="d"))
        assert reborn.persist() == 1
        assert ResultCache(capacity=4, path=path).load() == 1

    def test_non_dict_disk_payload_degrades_to_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('["not", "a", "mapping"]')
        cache = ResultCache(capacity=4, path=path)
        assert cache.load() == 0
        assert cache.get("k") is None

    def test_persist_is_atomic_no_temp_droppings(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(capacity=4, path=path)
        cache.put("k", RunRecord(job="j", design="d"))
        cache.persist()
        cache.persist()
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


class TestEGraphArtifactTier:
    def test_pathless_cache_has_no_artifact_tier(self):
        cache = ResultCache()
        assert cache.egraph_dir is None
        assert cache.egraph_path("fam") is None
        assert cache.get_egraph("fam") is None
        assert cache.stats()["egraph_artifacts"] == 0

    def test_artifact_round_trip_through_the_tier(self, tmp_path):
        from repro.egraph import EGraph, save_egraph
        from repro.ir import ops

        cache = ResultCache(path=tmp_path / "cache.json")
        assert cache.get_egraph("fam") is None  # nothing saved yet

        g = EGraph()
        root = g.add_node(ops.VAR, ("x", 4))
        g.rebuild()
        save_egraph(cache.egraph_path("fam"), g, {"out": root})
        found = cache.get_egraph("fam")
        assert found == cache.egraph_path("fam")
        assert cache.stats()["egraph_artifacts"] == 1

    def test_invalid_artifacts_are_ignored_not_fatal(self, tmp_path):
        cache = ResultCache(path=tmp_path / "cache.json")
        path = cache.egraph_path("fam")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an artifact\n")
        assert cache.get_egraph("fam") is None

    def test_warm_family_is_label_keyed_not_content_keyed(self):
        from repro.service import warm_family

        base = Job(name="a", design="lzc_example", **FAST)
        # Same label + schedule: same family, whatever the content will be.
        assert warm_family(base) == warm_family(replace(base, name="b"))
        assert warm_family(base) == warm_family(
            replace(base, source="module m(input x, output y); endmodule")
        )
        # Different ruleset knobs: a different family.
        assert warm_family(base) != warm_family(
            replace(base, enable_assume=False)
        )
        # Exploration limits deliberately do NOT split families: a deeper
        # saturated graph is still a sound seed.
        assert warm_family(base) == warm_family(replace(base, iter_limit=9))

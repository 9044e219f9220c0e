"""Persistent e-graph artifacts: format round-trips, pickling purity,
and graph absorption.

The properties the warm-start/stitch machinery leans on:

* **round-trip fidelity** — save/load (and plain pickling) preserve the
  union-find partition, the node/class counts, and every invariant;
* **pickling purity** — ``CoreGraph.__reduce__`` never mutates the graph
  being pickled (the PR-8 regression: it used to rebuild in place);
* **iteration fidelity** — the revived graph walks its member and parent
  sets in the saved order, so order-sensitive passes agree on both sides;
* **header honesty** — compatibility questions (format, digest, schedule,
  stored extraction objective) are answered from the one-line header, and
  every mismatch is a typed :class:`EGraphFormatError`, never a crash or a
  silent wrong answer;
* **table fidelity** — a solved extraction table round-trips with the
  graph it was solved on, and is never stored for another graph;
* **absorption soundness** — ``absorb_graph`` maps every source class to a
  target class such that source-equal stays target-equal.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph import (
    EGraph,
    EGraphFormatError,
    absorb_graph,
    load_egraph,
    read_header,
    save_egraph,
)
from repro.analysis import DatapathAnalysis
from repro.egraph import Extractor
from repro.egraph.serialize import FORMAT_VERSION
from repro.ir import ops, var
from repro.synth.cost import DelayAreaCost, default_key


@st.composite
def workload(draw):
    """A random sequence of add/union operations over small signatures."""
    n_leaves = draw(st.integers(2, 5))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 999), st.integers(0, 999)),
            min_size=1,
            max_size=40,
        )
    )
    return n_leaves, steps


def _build(load) -> tuple[EGraph, list[int]]:
    n_leaves, steps = load
    g = EGraph()
    ids = [g.add_node(ops.VAR, (f"v{i}", 4)) for i in range(n_leaves)]
    unary = [ops.NEG, ops.ABS, ops.LNOT]
    for kind, x, y in steps:
        a, b = ids[x % len(ids)], ids[y % len(ids)]
        if kind == 0:
            ids.append(g.add_node(unary[x % 3], (), (g.find(a),)))
        elif kind == 1:
            ids.append(g.add_node(ops.ADD, (), (g.find(a), g.find(b))))
        else:
            g.union(a, b)
    g.rebuild()
    return g, ids


def _partition(g: EGraph, ids: list[int]) -> list[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    for i in ids:
        classes.setdefault(g.find(i), set()).add(i)
    return sorted(
        (frozenset(members) for members in classes.values()), key=sorted
    )


class TestPicklingPurity:
    """``__reduce__`` must never mutate the graph being pickled."""

    def _dirty_graph(self) -> EGraph:
        """A graph with genuinely pending work: congruent parents whose
        children were unioned but not yet rebuilt."""
        g = EGraph()
        a = g.add_node(ops.VAR, ("a", 4))
        s = g.add_node(ops.VAR, ("s", 4))
        s2 = g.add_node(ops.VAR, ("s2", 4))
        g.add_node(ops.ADD, (), (s, a))
        g.add_node(ops.ADD, (), (s2, a))
        g.union(s, s2)
        return g

    def test_pickling_a_dirty_graph_changes_nothing(self):
        g = self._dirty_graph()
        core = g.core
        assert not core.is_clean, "scenario must have pending work"
        version = core.version
        pending = list(core.pending_pairs)
        node_count = g.node_count

        blob = pickle.dumps(g)

        assert core.version == version
        assert list(core.pending_pairs) == pending
        assert not core.is_clean
        assert g.node_count == node_count

        # The *clone* that went over the wire is rebuilt and consistent.
        loaded = pickle.loads(blob)
        assert loaded.core.is_clean
        loaded.core.check_invariants()

    def test_loaded_clone_matches_a_rebuilt_original(self):
        g = self._dirty_graph()
        loaded = pickle.loads(pickle.dumps(g))
        g.rebuild()
        assert loaded.node_count == g.node_count
        assert loaded.class_count == g.class_count

    @settings(max_examples=40, deadline=None)
    @given(workload())
    def test_round_trip_preserves_the_partition(self, load):
        g, ids = _build(load)
        before = _partition(g, ids)
        loaded = pickle.loads(pickle.dumps(g))
        assert _partition(loaded, ids) == before
        assert loaded.node_count == g.node_count
        assert loaded.class_count == g.class_count
        loaded.core.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(workload())
    def test_round_trip_preserves_member_and_parent_order(self, load):
        g, _ = _build(load)
        loaded = pickle.loads(pickle.dumps(g)).core
        core = g.core
        for cid in core.class_ids():
            assert list(loaded.class_nodes[cid]) == list(core.class_nodes[cid])
            assert list(loaded.class_parents[cid]) == list(core.class_parents[cid])


def _solved_graph():
    """A small analysed graph and its complete extraction table."""
    g = EGraph([DatapathAnalysis({})])
    root = g.add_expr((var("a", 4) + var("b", 4)) * var("c", 4))
    g.rebuild()
    return g, root, Extractor(g, DelayAreaCost(default_key)).table()


class TestSaveLoadFormat:
    @settings(max_examples=25, deadline=None)
    @given(load=workload())
    def test_save_load_round_trips_the_graph(self, load, tmp_path_factory):
        g, ids = _build(load)
        path = tmp_path_factory.mktemp("artifacts") / "g.egraph"
        roots = {"out": g.find(ids[0])}
        header = save_egraph(
            path, g, roots, digest="d" * 64, schedule="sched"
        )
        assert header.nodes == g.node_count
        assert header.classes == g.class_count
        saved = load_egraph(path, expect_digest="d" * 64, expect_schedule="sched")
        assert saved.root_ids == roots
        assert _partition(saved.egraph, ids) == _partition(g, ids)
        saved.egraph.core.check_invariants()

    def test_header_reads_without_unpickling(self, tmp_path):
        g, ids = _build((2, [(1, 0, 1)]))
        path = tmp_path / "g.egraph"
        save_egraph(
            path, g, {"a": ids[0], "b": ids[1]}, digest="x", schedule="y"
        )
        header = read_header(path)
        assert header.format == FORMAT_VERSION
        assert header.digest == "x"
        assert header.schedule == "y"
        assert header.roots == ("a", "b")
        assert header.nodes == g.node_count

    def test_extract_table_round_trips(self, tmp_path):
        g, root, table = _solved_graph()
        assert table is not None
        path = tmp_path / "g.egraph"
        header = save_egraph(path, g, {"out": root}, extract_table=table)
        assert header.objective == table.objective == read_header(path).objective
        saved = load_egraph(path)
        assert saved.extract_table == table
        assert saved.extract_table.fits(saved.egraph.core, table.objective)
        reused = Extractor(
            saved.egraph, DelayAreaCost(default_key), table=saved.extract_table
        )
        assert reused.reused and reused.steps == 0
        fresh = Extractor(saved.egraph, DelayAreaCost(default_key))
        assert reused.selection() == fresh.selection()
        assert reused.expr_of(root) == fresh.expr_of(root)

    def test_no_table_for_another_or_a_dirty_graph(self, tmp_path):
        g, root, table = _solved_graph()
        other = EGraph([DatapathAnalysis({})])
        other_root = other.add_expr(var("a", 4) + var("b", 4))
        other.rebuild()
        path = tmp_path / "g.egraph"
        header = save_egraph(path, other, {"out": other_root}, extract_table=table)
        assert header.objective == ""
        assert load_egraph(path).extract_table is None
        # Pending analysis work leaves the fingerprint alone, but the
        # pickle's rebuild would drain it: the saved graph could price its
        # classes differently from the one the table was solved on.
        g.core.analysis_pending[0] = None
        assert not g.core.is_clean and table.fits(g.core, table.objective)
        save_egraph(path, g, {"out": root}, extract_table=table)
        assert load_egraph(path).extract_table is None

    def test_input_ranges_travel_with_the_artifact(self, tmp_path):
        from repro.intervals import IntervalSet

        g, ids = _build((2, [(1, 0, 1)]))
        path = tmp_path / "g.egraph"
        ranges = {"v0": IntervalSet.of(3, 12)}
        save_egraph(path, g, {"out": ids[0]}, input_ranges=ranges)
        assert load_egraph(path).input_ranges == ranges

    @pytest.mark.parametrize(
        "corruption, reason",
        [
            (lambda p: p.unlink(), "io"),
            (lambda p: p.write_bytes(b"\xff\xfe garbage\n"), "header"),
            (lambda p: p.write_bytes(b'{"magic": "other"}\npayload'), "magic"),
            (
                lambda p: p.write_bytes(
                    b'{"magic": "repro-egraph", "format": 99}\npayload'
                ),
                "version",
            ),
            (
                lambda p: p.write_bytes(
                    p.read_bytes()[: len(p.read_bytes()) // 2 + 60]
                ),
                "payload",
            ),
        ],
        ids=["missing", "bad-header", "bad-magic", "future-version", "truncated"],
    )
    def test_damage_is_a_typed_error_never_a_crash(
        self, tmp_path, corruption, reason
    ):
        g, ids = _build((2, [(1, 0, 1), (1, 1, 0), (0, 0, 0)]))
        path = tmp_path / "g.egraph"
        save_egraph(path, g, {"out": ids[0]})
        corruption(path)
        with pytest.raises(EGraphFormatError) as err:
            load_egraph(path)
        assert err.value.reason == reason

    def test_digest_and_schedule_mismatches_are_refused(self, tmp_path):
        g, ids = _build((2, [(1, 0, 1)]))
        path = tmp_path / "g.egraph"
        save_egraph(path, g, {"out": ids[0]}, digest="aaa", schedule="s1")
        with pytest.raises(EGraphFormatError) as err:
            load_egraph(path, expect_digest="bbb")
        assert err.value.reason == "digest"
        with pytest.raises(EGraphFormatError) as err:
            load_egraph(path, expect_schedule="s2")
        assert err.value.reason == "schedule"
        # The matching expectations load fine.
        assert load_egraph(path, expect_digest="aaa", expect_schedule="s1")

    def test_save_is_atomic_no_temp_droppings(self, tmp_path):
        g, ids = _build((2, [(1, 0, 1)]))
        path = tmp_path / "g.egraph"
        save_egraph(path, g, {"out": ids[0]})
        save_egraph(path, g, {"out": ids[0]})  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["g.egraph"]


class TestAbsorbGraph:
    @settings(max_examples=40, deadline=None)
    @given(workload(), workload())
    def test_source_equalities_survive_absorption(self, load_a, load_b):
        target, _ = _build(load_a)
        source, ids = _build(load_b)
        mapping = absorb_graph(target, source)
        for i in ids:
            for j in ids:
                if source.find(i) == source.find(j):
                    assert (
                        target.find(mapping[source.find(i)])
                        == target.find(mapping[source.find(j)])
                    )
        target.core.check_invariants()

    def test_shared_subexpressions_dedup_into_the_target(self):
        a = EGraph()
        x = a.add_node(ops.VAR, ("x", 4))
        y = a.add_node(ops.VAR, ("y", 4))
        a.add_node(ops.ADD, (), (x, y))
        a.rebuild()
        before = a.node_count

        b = EGraph()
        bx = b.add_node(ops.VAR, ("x", 4))
        by = b.add_node(ops.VAR, ("y", 4))
        b.add_node(ops.ADD, (), (bx, by))
        b.add_node(ops.NEG, (), (bx,))
        b.rebuild()

        absorb_graph(a, b)
        # x, y and x+y dedup; only NEG(x) is new.
        assert a.node_count == before + 1

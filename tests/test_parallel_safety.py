"""Guards that keep the suite (and the pipeline) parallel-safe.

The tier-1 CI job runs under ``pytest-xdist -n auto`` and the pipeline
fans work out over process pools at two levels (designs via ``Session``,
cones via ``Shard``).  Both rely on the same substrate: work units pickle,
and everything that dispatches on *identity* survives the trip.  These
tests pin that substrate down; the companion session fixture in
``conftest.py`` guards registry immutability at teardown.
"""

from __future__ import annotations

import pickle

from repro.analysis.sharding import plan_shards
from repro.intervals import IntervalSet
from repro.ir import ops, var
from repro.pipeline import Job, Schedule, ShardTask, execute_job, run_shard_task


def test_jobs_and_shard_tasks_pickle():
    job = Job(name="j", design="stress_wide", shards=2, auto_shard_nodes=64)
    assert pickle.loads(pickle.dumps(job)) == job

    plan = plan_shards(
        {"a": var("x", 8) + var("y", 8)}, {"x": IntervalSet.of(1, 5)}
    )
    task = ShardTask(plan.shards[0], Schedule(iter_limit=2))
    clone = pickle.loads(pickle.dumps(task))
    assert clone.shard.roots == task.shard.roots
    assert clone.shard.input_ranges == task.shard.input_ranges
    assert clone.schedule == task.schedule


def test_worker_entrypoints_pickle_by_reference():
    """Process pools ship the callable too — it must be a named top-level."""
    for fn in (execute_job, run_shard_task):
        assert pickle.loads(pickle.dumps(fn)) is fn


def test_ops_unpickle_to_singletons():
    """The whole codebase dispatches on ``op is ops.X`` — operators crossing
    a process boundary must resolve back to the interned instances."""
    for op in ops.OPS_BY_NAME.values():
        assert pickle.loads(pickle.dumps(op)) is op


def test_interval_sets_unpickle_interned():
    """Regression: unpickling used to route through ``__new__()`` with no
    arguments, returning the interned *empty* set and then overwriting its
    slots in place — after which every ``IntervalSet.empty()`` in the
    process silently held the unpickled set's parts."""
    full = IntervalSet.of(3, 9).union(IntervalSet.of(20, 30))
    clone = pickle.loads(pickle.dumps(full))
    assert clone == full
    assert IntervalSet.empty().parts == ()
    assert IntervalSet.empty().is_empty
    # Interning also holds across the round trip within one process.
    assert clone is full


def test_egraph_pickles_through_compact_core_state():
    """The flat core ships only its arrays + intern tables (``__reduce__``);
    the hashcons, per-op index and parent sets are derived on load.  The
    revived graph must be behaviorally identical: same counts, same
    partition, same invariants — and still *live* (adding a known node
    hits the rebuilt hashcons instead of growing the graph)."""
    from repro.egraph import EGraph

    g = EGraph()
    a = g.add_node(ops.VAR, ("a", 8))
    b = g.add_node(ops.VAR, ("b", 8))
    add = g.add_node(ops.ADD, (), (a, b))
    shl = g.add_node(ops.SHL, (), (a, g.add_node(ops.CONST, (1,))))
    g.union(add, shl)
    g.rebuild()

    clone = pickle.loads(pickle.dumps(g))
    assert clone.class_count == g.class_count
    assert clone.node_count == g.node_count
    assert clone.find(add) == clone.find(shl)
    assert clone.find(a) != clone.find(b)
    clone.check_invariants()
    # The rebuilt hashcons dedups: re-adding an existing node is a no-op.
    before = clone.node_count
    assert clone.find(clone.add_node(ops.ADD, (), (a, b))) == clone.find(add)
    assert clone.node_count == before
    # And the revived graph keeps evolving independently of the original.
    clone.add_node(ops.NEG, (), (a,))
    assert clone.node_count == before + 1
    assert g.node_count == before


def test_expr_hash_cache_does_not_cross_processes():
    """Str hashing is per-process randomized; a pickled Expr must rehash:
    its pickled state carries no hash, and loading recomputes it."""
    expr = var("x", 8) + 1
    assert expr.__getstate__() == (expr.op, expr.attrs, expr.children)
    clone = pickle.loads(pickle.dumps(expr))
    rehashed = hash((clone.op, clone.attrs, clone.children))
    assert object.__getattribute__(clone, "_hash") == rehashed
    assert clone == expr and hash(clone) == hash(expr)

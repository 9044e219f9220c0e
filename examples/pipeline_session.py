"""The composable pipeline API: phased schedules, sweeps, batch sessions.

Run with::

    PYTHONPATH=src python examples/pipeline_session.py
"""

from repro.designs import get_design
from repro.pipeline import (
    Extract,
    Ingest,
    Pipeline,
    RunRecord,
    Saturate,
    Session,
    Verify,
)
from repro.rewrites import compose_rules, structural_ruleset
from repro.synth.cost import weighted_key


def phased_schedule() -> None:
    """Cheap identities first, full constraint-aware rules after."""
    design = get_design("lzc_example")
    ctx = Pipeline([
        Ingest(source=design.verilog),
        Saturate(structural_ruleset(), iter_limit=2, label="saturate:structural"),
        Saturate(compose_rules(), iter_limit=4, label="saturate:full"),
        Extract(),
        Verify(),
    ]).run(input_ranges=design.input_ranges)

    print(f"== {design.name}: phased schedule")
    before, after = ctx.original_costs["out"], ctx.optimized_costs["out"]
    print(f"   delay {before.delay:.1f} -> {after.delay:.1f}, "
          f"area {before.area:.1f} -> {after.area:.1f}  [{ctx.equivalence['out']}]")
    for label, seconds in ctx.timings:
        print(f"   {label:<22} {seconds * 1000:7.1f} ms")

    # One saturation, many extraction objectives (Figure 3's sweep).
    print("\n== objective sweep (area weight vs extracted cost)")
    for weight in (0.0, 0.01, 0.1):
        Extract(key=weighted_key(1.0, weight)).run(ctx)
        cost = ctx.optimized_costs["out"]
        print(f"   w={weight:<5} delay {cost.delay:5.1f}  area {cost.area:7.1f}")


def batch_session() -> None:
    """The whole registry on a process pool, as JSON-able records.

    The pool has one process per usable CPU (at most one per design);
    ``run(workers=1)`` keeps every job in this process.
    """
    print("\n== batch session (all registry designs, process pool)")
    records = Session.for_designs(iter_limit=4, node_limit=8_000).run()
    for record in records:
        print(f"   {record.job:<16} {record.stop_reason:<16} "
              f"delay -{record.delay_improvement:4.0%}  "
              f"area -{record.area_improvement:4.0%}")

    # Records round-trip through JSON — this is the bench trajectory format.
    assert RunRecord.from_json(records[0].to_json()) == records[0]
    print("\nrecord JSON:", records[0].to_json()[:120], "...")


# The process pool re-imports this module on spawn platforms (macOS,
# Windows) — keep all work behind the guard.
if __name__ == "__main__":
    phased_schedule()
    batch_session()

"""Golden verdicts: the exact ``EquivalenceResult`` of every registry design.

Each designer job (``optimize`` as the CLI builds it, verification on) must
keep its verdict field for field: proved or not, the method, the trial
count, the BDD nodes spent and the counterexample.  The simulator and the
BDD engine may get faster; what they tell the user may not change.  The
four designer-benchmark jobs run at its settings (stress_wide at
``--iters 4``), the other registry designs at ``--iters 4`` as well.  The
values were recorded before simulation was compiled, identically under
two hash seeds.  The BDD pins (fp_sub, stress_wide) were re-recorded on
purpose when the BDD's care set was cofactored on range-fixed input bits
and its variable order derived from the miter's structure: fp_sub went
from a blown BDD (``BDD_BLOWN``) to a proof, and stress_wide's proofs
from 8,777/28,419 to 6,848/21,594 nodes.
"""

from __future__ import annotations

import pytest

from repro import DatapathOptimizer, OptimizerConfig
from repro.cli import build_parser
from repro.designs import DESIGNS

# (equivalent, method, trials, bdd_nodes, counterexample) per output.
EXHAUSTIVE_LZC = (True, "exhaustive", 32768, 0, None)
BDD_BLOWN = (None, "random", 5000, 400000, None)
STRESS_EVEN = (True, "bdd", 6848, 6848, None)
STRESS_ODD = (True, "bdd", 21594, 21594, None)

GOLDEN = {
    ("fp_sub", ()): {"out": (True, "bdd", 102952, 102952, None)},
    ("float_to_unorm", ()): {"out": (True, "exhaustive", 15360, 0, None)},
    ("lzc_example", ()): {"out": EXHAUSTIVE_LZC},
    ("stress_wide", ("--iters", "4")): {
        f"out{i}": STRESS_EVEN if i % 2 == 0 else STRESS_ODD for i in range(8)
    },
    ("interpolation", ("--iters", "4")): {"out": BDD_BLOWN},
    ("unorm_to_float", ("--iters", "4")): {"out": (True, "exhaustive", 2048, 0, None)},
}


def test_every_registry_design_is_pinned():
    assert {design for design, _ in GOLDEN} == set(DESIGNS)


def _designer_verdicts(design_name: str, flags: tuple) -> dict:
    """Verdicts of ``optimize <design> <flags>`` with the CLI's defaults."""
    design = DESIGNS[design_name]
    args = build_parser().parse_args(["optimize", f"{design_name}.v", *flags])
    config = OptimizerConfig(
        iter_limit=args.iters,
        node_limit=args.nodes,
        time_limit=args.time_limit,
        verify=True,
        split_threshold=args.split_threshold,
        shards=args.shards,
        auto_shard_nodes=args.auto_shard_nodes or None,
        budget_policy=args.budget_policy,
        extract_objective=args.objective,
    )
    module = DatapathOptimizer(design.input_ranges, config).optimize_verilog(
        design.verilog
    )
    return {
        name: (
            result.equivalence.equivalent,
            result.equivalence.method,
            result.equivalence.trials,
            result.equivalence.bdd_nodes,
            result.equivalence.counterexample,
        )
        for name, result in module.outputs.items()
    }


@pytest.mark.parametrize("job", sorted(GOLDEN), ids=lambda job: " ".join((job[0], *job[1])))
def test_verdicts_match_golden(job):
    assert _designer_verdicts(*job) == GOLDEN[job]

"""Warm-start contract: persisted e-graphs seed later runs soundly.

* **exact resubmission** — re-running an unedited design from its own
  artifact extracts the *identical* cost as the cold run on every registry
  design (the artifact already consumed the schedule, so saturation is
  skipped, not replayed from a bigger seed);
* **edited resubmission** — an edited design re-interns into the persisted
  graph (``hit:…:delta``), re-saturates, and its outputs stay equivalent
  to the edited source;
* **degradation** — every incompatibility (missing/corrupt artifact,
  different schedule, different input ranges) is a *cold start with
  provenance*, bit-identical in outcome to never having warm-started.
"""

from __future__ import annotations

import pytest

from repro.designs import DESIGNS, get_design
from repro.egraph.serialize import load_egraph
from repro.pipeline import (
    Extract,
    Ingest,
    Job,
    Pipeline,
    SaveEGraph,
    Saturate,
    WarmStart,
    execute_job,
)
from repro.rewrites import compose_rules
from repro.rtl import module_to_ir
from repro.verify import check_equivalent

ITERS = 3
NODE_LIMIT = 8_000


def _cold(design, save_path=None, schedule=""):
    stages = [
        Ingest(source=design.verilog),
        Saturate(compose_rules(), iter_limit=ITERS, node_limit=NODE_LIMIT),
    ]
    if save_path is not None:
        stages.append(SaveEGraph(save_path, schedule=schedule))
    stages.append(Extract())
    return Pipeline(stages).run(input_ranges=design.input_ranges)


def _warm(design, artifact, schedule="", source=None, input_ranges=None):
    return Pipeline(
        [
            Ingest(source=source or design.verilog, seed_egraph=False),
            WarmStart(artifact, schedule=schedule),
            Saturate(compose_rules(), iter_limit=ITERS, node_limit=NODE_LIMIT),
            Extract(),
        ]
    ).run(
        input_ranges=design.input_ranges
        if input_ranges is None
        else input_ranges
    )


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_unedited_warm_start_extracts_identical_cost(name, tmp_path):
    design = get_design(name)
    artifact = tmp_path / f"{name}.egraph"
    cold = _cold(design, save_path=artifact, schedule="k")
    warm = _warm(design, artifact, schedule="k")

    status = warm.artifacts["warm_start"]
    assert status.startswith("hit:") and not status.endswith(":delta"), status
    # An exact hit consumes no fresh saturation: the artifact is the
    # schedule's own fixpoint.
    assert warm.reports[-1].stop_reason.value == "saturated"
    assert warm.reports[-1].iterations == []
    for output in cold.roots:
        assert (
            warm.optimized_costs[output].key == cold.optimized_costs[output].key
        ), f"warm {name}:{output} diverged from cold"


def test_edited_design_warm_starts_as_delta_and_stays_sound(tmp_path):
    design = get_design("lzc_example")
    artifact = tmp_path / "lzc_example.egraph"
    _cold(design, save_path=artifact, schedule="k")

    # Edit: expose a second output whose cone the artifact has never seen
    # (a genuinely new e-node, so the delta must re-saturate).
    edited = design.verilog.replace(
        "output [3:0] out", "output [3:0] out,\n  output [7:0] out2"
    ).replace("endmodule", "  assign out2 = x & y;\nendmodule")
    assert edited != design.verilog
    warm = _warm(design, artifact, schedule="k", source=edited)
    status = warm.artifacts["warm_start"]
    assert status.startswith("hit:") and status.endswith(":delta"), status
    # The delta re-saturates for real.
    assert warm.reports[-1].iterations, "delta run must saturate"

    cones = module_to_ir(edited)
    assert set(warm.extracted) == set(cones)
    for output, optimized in warm.extracted.items():
        verdict = check_equivalent(
            cones[output], optimized, design.input_ranges
        )
        assert verdict.ok, f"{output} differs at {verdict.counterexample}"


def test_empty_delta_edit_skips_saturation(tmp_path):
    """An edit whose cones re-intern without adding a single e-node (here:
    exposing an already-explored subexpression as a new output) has no
    delta to saturate — the warm run goes straight to extraction."""
    design = get_design("lzc_example")
    artifact = tmp_path / "lzc_example.egraph"
    cold = _cold(design, save_path=artifact, schedule="k")

    edited = design.verilog.replace(
        "output [3:0] out", "output [3:0] out,\n  output [8:0] out2"
    ).replace("endmodule", "  assign out2 = x + y;\nendmodule")
    warm = _warm(design, artifact, schedule="k", source=edited)
    status = warm.artifacts["warm_start"]
    assert status.startswith("hit:") and status.endswith(":delta"), status
    assert warm.reports[-1].stop_reason.value == "saturated"
    assert warm.reports[-1].iterations == []
    # The unchanged output extracts the cold run's exact cost; the new
    # output is sound against its edited cone.
    assert (
        warm.optimized_costs["out"].key == cold.optimized_costs["out"].key
    )
    cones = module_to_ir(edited)
    for output, optimized in warm.extracted.items():
        verdict = check_equivalent(
            cones[output], optimized, design.input_ranges
        )
        assert verdict.ok, f"{output} differs at {verdict.counterexample}"


class TestColdFallbacks:
    """Every incompatibility degrades to a cold run with provenance."""

    @pytest.fixture()
    def design(self):
        return get_design("lzc_example")

    def _assert_cold_matches(self, design, warm, reason):
        assert warm.artifacts["warm_start"] == f"cold:{reason}"
        cold = _cold(design)
        for output in cold.roots:
            assert (
                warm.optimized_costs[output].key
                == cold.optimized_costs[output].key
            )

    def test_missing_artifact(self, design, tmp_path):
        warm = _warm(design, tmp_path / "nope.egraph")
        self._assert_cold_matches(design, warm, "io")

    def test_schedule_mismatch(self, design, tmp_path):
        artifact = tmp_path / "a.egraph"
        _cold(design, save_path=artifact, schedule="old-schedule")
        warm = _warm(design, artifact, schedule="new-schedule")
        self._assert_cold_matches(design, warm, "schedule")

    def test_corrupt_artifact(self, design, tmp_path):
        artifact = tmp_path / "a.egraph"
        _cold(design, save_path=artifact)
        blob = artifact.read_bytes()
        cut = blob.index(b"\n") + 40  # keep the header, truncate the payload
        artifact.write_bytes(blob[:cut])
        warm = _warm(design, artifact)
        self._assert_cold_matches(design, warm, "payload")

    def test_input_range_mismatch_is_a_cold_start(self, design, tmp_path):
        from repro.intervals import IntervalSet

        artifact = tmp_path / "a.egraph"
        _cold(design, save_path=artifact)
        # Same design, different domain assumptions: the persisted analysis
        # baked the old ranges into every class, so reuse would be unsound.
        warm = _warm(
            design, artifact, input_ranges={"x": IntervalSet.of(0, 3)}
        )
        assert warm.artifacts["warm_start"] == "cold:input-ranges"


class TestJobIntegration:
    def test_job_save_then_warm_round_trip(self, tmp_path):
        artifact = tmp_path / "fam.egraph"
        cold = execute_job(
            Job(
                name="c",
                design="lzc_example",
                iter_limit=ITERS,
                node_limit=NODE_LIMIT,
                save_egraph=str(artifact),
            )
        )
        assert cold.status == "ok" and artifact.exists()
        assert cold.warm_start == ""
        warm = execute_job(
            Job(
                name="w",
                design="lzc_example",
                iter_limit=ITERS,
                node_limit=NODE_LIMIT,
                warm_start=str(artifact),
            )
        )
        assert warm.status == "ok"
        assert warm.warm_start.startswith("hit:")
        assert warm.optimized_area == cold.optimized_area
        assert warm.optimized_delay == cold.optimized_delay

    def test_exact_hit_record_reports_the_loaded_graph(self, tmp_path):
        """No saturation runs on an exact hit, so the record's size comes
        from the loaded e-graph rather than an empty saturation report."""
        artifact = tmp_path / "fam.egraph"
        execute_job(Job(name="c", design="lzc_example", save_egraph=str(artifact)))
        loaded = load_egraph(artifact).egraph
        warm = execute_job(
            Job(name="w", design="lzc_example", warm_start=str(artifact))
        )
        assert warm.status == "ok" and warm.warm_start.startswith("hit:")
        assert warm.iterations == 0
        assert (warm.nodes, warm.classes) == (loaded.node_count, loaded.class_count)
        assert warm.nodes > 0 and warm.classes > 0
        assert warm.nodes_per_s == 0.0

    def test_edited_source_job_inherits_registry_ranges(self, tmp_path):
        design = get_design("lzc_example")
        artifact = tmp_path / "fam.egraph"
        execute_job(
            Job(
                name="c",
                design="lzc_example",
                iter_limit=ITERS,
                node_limit=NODE_LIMIT,
                save_egraph=str(artifact),
            )
        )
        record = execute_job(
            Job(
                name="w",
                design="lzc_example",
                source=design.verilog,  # same-label resubmission by source
                iter_limit=ITERS,
                node_limit=NODE_LIMIT,
                warm_start=str(artifact),
            )
        )
        assert record.status == "ok"
        # Ranges inherited from the registry design keep the artifact's
        # input-range check green: this is a warm hit, not cold:input-ranges.
        assert record.warm_start.startswith("hit:")

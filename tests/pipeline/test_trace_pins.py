"""Per-iteration saturation traces, pinned rule by rule.

The golden run records (``golden_schedules.json``) pin three iterations;
a change in *when* a rule's guard is read (at search time, before the
backoff budget cuts the match list, or at apply time, after earlier
applications of the same iteration moved the ranges) first shows up
later.  These pins record, for every saturation iteration of five
monolithic ``bench`` jobs at the registry defaults (verification off), the
e-graph size after the rebuild and how many times each rule changed the
graph:

* ``fp_sub --iters 5`` — the fifth iteration is where an apply-time
  ``trunc-elim`` guard differs (59 applications instead of 58);
* ``interpolation --iters 4``;
* ``lzc_example`` and ``stress_wide --iters 4``, where ``lzc-narrow``
  fires (``stress_wide`` also fires ``assume-true-elim``);
* ``unorm_to_float``, the one registry job where ``lzc-width-reduce``
  fires.

Regenerate with ``PYTHONPATH=src python tests/pipeline/test_trace_pins.py``:
it computes the pins under ``PYTHONHASHSEED`` 0 and 1, refuses to write
unless both agree, and rewrites ``trace_pins.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import Budget, Job, job_stages
from repro.pipeline.context import PipelineContext
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.session import job_design

PINS = Path(__file__).with_name("trace_pins.json")

#: label -> (design, iteration limit; ``None`` keeps the design's own).
JOBS = {
    "fp_sub/iters5": ("fp_sub", 5),
    "interpolation/iters4": ("interpolation", 4),
    "lzc_example": ("lzc_example", None),
    "stress_wide/iters4": ("stress_wide", 4),
    "unorm_to_float": ("unorm_to_float", None),
}


def trace(design_name: str, iters: int | None) -> list[dict]:
    """Per-iteration sizes and applications of one ``bench`` job."""
    job = Job(name=design_name, design=design_name, iter_limit=iters)
    design = job_design(job)
    ctx = PipelineContext()
    ctx.input_ranges = dict(design.input_ranges)
    Pipeline(job_stages(job, design)).run(ctx=ctx, budget=Budget())
    return [
        {
            "nodes_after": it.nodes_after,
            "classes_after": it.classes_after,
            "applied": dict(sorted(it.applied.items())),
        }
        for report in ctx.reports
        for it in report.iterations
    ]


def all_pins() -> dict:
    return {label: trace(*spec) for label, spec in JOBS.items()}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("label", sorted(JOBS))
def test_trace(label, pins):
    got = trace(*JOBS[label])
    want = pins[label]
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want, strict=True)):
        assert g == w, f"{label}: iteration {index} differs"


def _pins_under(seed: str) -> dict:
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_trace_pins as pins\n"
        "print(json.dumps(pins.all_pins(), sort_keys=True))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


if __name__ == "__main__":
    first, second = _pins_under("0"), _pins_under("1")
    if first != second:
        sys.exit("trace pins differ between hash seeds")
    PINS.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")

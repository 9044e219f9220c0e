"""The independent correctness check: emitted designs against the behaviour.

The emitted module is re-elaborated with :func:`repro.rtl.module_to_ir` and
compared output by output with the behavioural module under
:func:`repro.ir.evaluate.evaluate`, over the constrained input domain --
every point when the domain has at most 2^16 of them, otherwise a sample
drawn from the benchmark seed.  Neither the optimizer nor its verifier
takes part.

The frontend does not read ``signed`` declarations, which the emitter
writes for wires whose range goes negative (fp_sub's exponent difference).
Such a design is checked through the extracted IR the emitter rendered
instead, and the check says so (``via="ir"``).
"""

from __future__ import annotations

import itertools
import random

EXHAUSTIVE_POINTS = 1 << 16
SAMPLE_POINTS = 512


def _domains(roots, ranges_json: dict):
    from repro.intervals import IntervalSet
    from repro.ir.evaluate import input_variables

    widths: dict[str, int] = {}
    for expr in roots.values():
        widths.update(input_variables(expr))
    domains = {}
    for name, width in sorted(widths.items()):
        domain = IntervalSet.unsigned(width)
        if name in ranges_json:
            allowed = IntervalSet.empty()
            for lo, hi in ranges_json[name]:
                allowed = allowed.union(IntervalSet.of(lo, hi))
            domain = domain.intersect(allowed)
        domains[name] = domain
    return domains


def _environments(domains, seed: int):
    total = 1
    for domain in domains.values():
        total *= domain.size()
    names = list(domains)
    if total <= EXHAUSTIVE_POINTS:
        values = [list(domains[name].iter_values()) for name in names]
        for point in itertools.product(*values):
            yield dict(zip(names, point, strict=True))
        return
    rng = random.Random(seed)
    parts = {name: domains[name].parts for name in names}
    for _ in range(SAMPLE_POINTS):
        env = {}
        for name in names:
            piece = parts[name][rng.randrange(len(parts[name]))]
            env[name] = rng.randint(piece.lo, piece.hi)
        yield env


def check_design(source: str, emitted: str, extracted: dict, ranges_json: dict,
                 seed: int) -> dict:
    """``{"via": "rtl"|"ir", "points": n, "problems": [...]}`` -- no
    problems when the designs agree on every checked point."""
    from repro.ir.evaluate import evaluate
    from repro.rtl import ElaborationError, ParseError, module_to_ir

    behaviour = module_to_ir(source)
    try:
        design, via = module_to_ir(emitted), "rtl"
    except (ParseError, ElaborationError):
        design, via = extracted, "ir"
    missing = sorted(set(behaviour) - set(design))
    if missing:
        return {"via": via, "points": 0, "problems": [f"no outputs {missing}"]}
    problems = []
    pending = dict(behaviour)
    points = 0
    for env in _environments(_domains(behaviour, ranges_json), seed):
        points += 1
        for name in list(pending):
            want, got = evaluate(pending[name], env), evaluate(design[name], env)
            if want != got:
                problems.append(f"{name} at {env}: expected {want}, got {got}")
                del pending[name]
        if not pending:
            break
    return {"via": via, "points": points, "problems": problems}


def check_entries(entries: list[dict], seed: int) -> None:
    """Check every entry that carries an emitted design, in place."""
    for entry in entries:
        if not entry.get("emitted"):
            continue
        with open(entry["source"]) as a, open(entry["emitted"]) as b:
            entry["check"] = check_design(
                a.read(), b.read(), entry["_extracted"], entry["ranges"], seed
            )

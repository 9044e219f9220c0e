"""Report formatting (plus a back-compat alias for the tree cost helper).

``model_cost`` moved to :mod:`repro.synth.treecost` so that
:mod:`repro.pipeline.stages` can import it at module level without the
``repro.opt`` -> ``repro.pipeline`` -> ``repro.opt`` package cycle the old
home forced (``Extract.run`` used to hide it behind a lazy import).  It is
re-exported here because ``repro.opt.model_cost`` is a documented entry
point.
"""

from __future__ import annotations

from repro.synth.treecost import model_cost

__all__ = ["model_cost", "format_comparison"]


def format_comparison(
    rows: list[tuple[str, float, float, float, float]],
    headers: tuple[str, str] = ("Behavioural", "Optimized"),
) -> str:
    """Render a Table III style comparison.

    ``rows`` entries: (name, delay_a, area_a, delay_b, area_b).
    """
    lines = [
        f"{'Test Case':<16} {headers[0]:>22} {headers[1]:>28}",
        f"{'':<16} {'delay':>10} {'area':>11} {'delay':>14} {'area':>13}",
    ]
    for name, delay_a, area_a, delay_b, area_b in rows:
        delay_pct = 100.0 * (delay_b - delay_a) / delay_a if delay_a else 0.0
        area_pct = 100.0 * (area_b - area_a) / area_a if area_a else 0.0
        lines.append(
            f"{name:<16} {delay_a:>10.2f} {area_a:>11.1f} "
            f"{delay_b:>8.2f} ({delay_pct:+3.0f}%) {area_b:>7.1f} ({area_pct:+3.0f}%)"
        )
    return "\n".join(lines)

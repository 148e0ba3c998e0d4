"""Deltas of the counters the program already exports on ``GET /metrics``.

Nothing is added inside ``src/``: the exposition is parsed with the
program's own :func:`repro.obs.aggregate.parse_exposition` and flattened
to ``{sample name: {label items: value}}`` so two scrapes subtract.
"""

from __future__ import annotations

from repro.obs.aggregate import parse_exposition

Scrape = dict[str, dict[tuple, float]]


def flatten(text: str) -> Scrape:
    """``{sample name: {sorted label items: value}}`` of one exposition."""
    out: Scrape = {}
    for family in parse_exposition(text).values():
        for sample_name, labels, value in family.samples:
            out.setdefault(sample_name, {})[tuple(sorted(labels.items()))] = value
    return out


def delta(after: Scrape, before: Scrape) -> Scrape:
    """Per-series difference; a series absent before counts from zero."""
    return {
        name: {
            labels: value - before.get(name, {}).get(labels, 0.0)
            for labels, value in series.items()
        }
        for name, series in after.items()
    }


def total(scrape: Scrape, name: str, **labels: str) -> float:
    """Sum of the series of ``name`` whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(
        value for series_labels, value in scrape.get(name, {}).items()
        if wanted <= set(series_labels)
    )


def share(scrape: Scrape, name: str, **labels: str) -> float:
    """``total(name, **labels) / total(name)``; 0.0 when nothing counted."""
    whole = total(scrape, name)
    return total(scrape, name, **labels) / whole if whole else 0.0

"""Paper-style table rendering.

The benchmark harness prints its results as plain-text tables shaped like the
paper's figures (the original uses diagrams and tables; we emit aligned text
so that the comparison against the published numbers is a diff, not a chart).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np


__all__ = [
    "render_table",
    "penalty_ladder_table",
    "measured_vs_predicted_table",
    "per_task_error_table",
]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned plain-text table."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    formatted = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def penalty_ladder_table(
    results: Mapping[str, Mapping[str, Mapping[str, float]]],
    reference: Optional[Mapping[str, Mapping[str, Mapping[str, float]]]] = None,
    networks: Sequence[str] = ("gigabit-ethernet", "myrinet", "infiniband"),
    title: str = "Figure 2 - penalties per scheme and network",
) -> str:
    """Figure 2 style table.

    ``results[scheme][network][communication] = penalty``; when ``reference``
    (the paper's values) is given, each cell shows ``ours (paper)``.
    """
    headers = ["scheme", "com."] + [str(n) for n in networks]
    rows: List[List[object]] = []
    for scheme, per_network in results.items():
        comms = sorted({c for network in per_network.values() for c in network})
        for comm in comms:
            row: List[object] = [scheme, comm]
            for network in networks:
                value = per_network.get(network, {}).get(comm)
                cell = "-" if value is None else f"{value:.2f}"
                if reference is not None:
                    ref = reference.get(scheme, {}).get(network, {}).get(comm)
                    if ref is not None:
                        cell += f" ({ref:.2f})"
                row.append(cell)
            rows.append(row)
    return render_table(headers, rows, title=title)


def measured_vs_predicted_table(
    measured: Mapping[str, float],
    predicted: Mapping[str, float],
    relative_errors: Optional[Mapping[str, float]] = None,
    title: str = "",
    paper_measured: Optional[Mapping[str, float]] = None,
    paper_predicted: Optional[Mapping[str, float]] = None,
) -> str:
    """Figure 4 / Figure 7 style table: Tm, Tp, Erel per communication."""
    headers = ["com.", "Tm [s]", "Tp [s]", "Erel [%]"]
    if paper_measured is not None:
        headers += ["paper Tm", "paper Tp"]
    rows: List[List[object]] = []
    for name in measured:
        tm = measured[name]
        tp = predicted[name]
        erel = (
            relative_errors[name]
            if relative_errors is not None
            else (tp - tm) / tm * 100.0 if tm else 0.0
        )
        row: List[object] = [name, tm, tp, erel]
        if paper_measured is not None:
            row.append(paper_measured.get(name, float("nan")))
            row.append((paper_predicted or {}).get(name, float("nan")))
        rows.append(row)
    table = render_table(headers, rows, title=title, float_format="{:.4f}")
    errors = [
        abs(relative_errors[name]) if relative_errors is not None
        else abs((predicted[name] - measured[name]) / measured[name] * 100.0)
        for name in measured if measured[name]
    ]
    eabs = float(np.mean(errors)) if errors else 0.0
    return table + f"\nAverage of absolute errors Eabs = {eabs:.1f} %"


def per_task_error_table(
    measured: Mapping[int, float],
    predicted: Mapping[int, float],
    title: str = "",
) -> str:
    """Figures 8/9 style table: per-task S_m, S_p and absolute error."""
    headers = ["task", "Sm [s]", "Sp [s]", "Eabs [%]"]
    rows: List[List[object]] = []
    errors: List[float] = []
    for rank in sorted(measured):
        sm = measured[rank]
        sp = predicted.get(rank, 0.0)
        err = abs((sp - sm) / sm * 100.0) if sm else 0.0
        errors.append(err)
        rows.append([rank, sm, sp, err])
    table = render_table(headers, rows, title=title, float_format="{:.4f}")
    mean_error = float(np.mean(errors)) if errors else 0.0
    return table + f"\nmean per-task Eabs = {mean_error:.1f} %"

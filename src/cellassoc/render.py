"""Deterministic text and SVG pictures of networks and plans.

The ASCII layout is line-oriented and stable so tests can count lines:
one "MT i" line per user, one "BS j" line per base station, and exactly
2k - 1 edge lines containing "--" for the connectivity (user i to its
own base station, and to the previous one when it exists).  Association
members that are not connected are listed as extra "~~" lines since they
carry no signal.

When a plan is supplied, downlink-inactive users are tagged [inactive]
and silent base stations [silent].  The SVG uses fixed integer
coordinates and sorted iteration only, so byte-identical output is
reproducible across runs.
"""

from __future__ import annotations

from typing import Optional

from .model import CellAssociation, connected_bs
from .schemes import SchemePlan


def _tags(plan: Optional[SchemePlan], user: Optional[int] = None,
          bs: Optional[int] = None) -> str:
    if plan is None:
        return ""
    if user is not None and user not in plan.dl_active_users:
        return "  [inactive]"
    if bs is not None and bs in plan.dl_silent_bs:
        return "  [silent]"
    return ""


def render_ascii(assoc: CellAssociation, plan: Optional[SchemePlan] = None) -> str:
    """Stable text rendering; see the module docstring for the line contract."""
    k = assoc.k
    lines = [f"network k={k} nc={assoc.nc}"]
    for i in range(1, k + 1):
        cell = ",".join(str(j) for j in sorted(assoc.cell(i))) or "-"
        lines.append(f"MT {i}  C={{{cell}}}{_tags(plan, user=i)}")
    for j in range(1, k + 1):
        lines.append(f"BS {j}{_tags(plan, bs=j)}")
    lines.append("edges:")
    for i in range(1, k + 1):
        for j in sorted(connected_bs(i, k)):
            mark = "assoc" if j in assoc.cell(i) else "."
            lines.append(f"MT{i}--BS{j}  {mark}")
        for j in sorted(assoc.cell(i) - connected_bs(i, k)):
            lines.append(f"MT{i}~~BS{j}  assoc (out of range, no signal)")
    return "\n".join(lines) + "\n"


_ROW = 56
_MT_X = 90
_BS_X = 330
_TOP = 40


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(assoc: CellAssociation, plan: Optional[SchemePlan] = None) -> str:
    """Two-column picture: users left, base stations right.

    Connected edges are solid (thick when associated), out-of-range
    association members dashed, inactive/silent nodes hollow red.
    """
    k = assoc.k
    height = _TOP + _ROW * k + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="420" height="{height}" '
        f'viewBox="0 0 420 {height}">',
        f'<text x="{_MT_X}" y="20" text-anchor="middle" font-size="14">'
        f"{_esc(f'k={k} nc={assoc.nc}')}</text>",
    ]

    def row_y(n: int) -> int:
        """Height of row n: user n on the left, bs n on the right."""
        return _TOP + _ROW * (n - 1) + 20

    for i in range(1, k + 1):
        for j in sorted(connected_bs(i, k)):
            member = j in assoc.cell(i)
            width = 3 if member else 1
            color = "#1a6faf" if member else "#999999"
            parts.append(
                f'<line x1="{_MT_X}" y1="{row_y(i)}" x2="{_BS_X}" y2="{row_y(j)}" '
                f'stroke="{color}" stroke-width="{width}" />'
            )
        for j in sorted(assoc.cell(i) - connected_bs(i, k)):
            parts.append(
                f'<line x1="{_MT_X}" y1="{row_y(i)}" x2="{_BS_X}" y2="{row_y(j)}" '
                f'stroke="#b08a2e" stroke-width="1" stroke-dasharray="6,4" />'
            )

    for i in range(1, k + 1):
        inactive = plan is not None and i not in plan.dl_active_users
        fill = "#ffffff" if inactive else "#1a6faf"
        stroke = "#cc0000" if inactive else "#10456d"
        parts.append(
            f'<circle cx="{_MT_X}" cy="{row_y(i)}" r="12" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="2" />'
        )
        parts.append(
            f'<text x="{_MT_X - 40}" y="{row_y(i) + 5}" font-size="12">MT {i}</text>'
        )
    for j in range(1, k + 1):
        silent = plan is not None and j in plan.dl_silent_bs
        fill = "#ffffff" if silent else "#333333"
        stroke = "#cc0000" if silent else "#111111"
        y = row_y(j)
        parts.append(
            f'<rect x="{_BS_X - 10}" y="{y - 10}" width="20" height="20" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="2" />'
        )
        parts.append(
            f'<text x="{_BS_X + 20}" y="{y + 5}" font-size="12">BS {j}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

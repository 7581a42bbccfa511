"""Minimal free resolutions of monomial ideal sheaves.

The ideal is given by its diagram, which fixes the minimal generators
``x^{a_i} y^{b_i}`` (``a_1 > ... > a_r = 0``, ``0 = b_1 < ... < b_r``).  The
ideal has a length-one resolution whose syzygy module is free with one
relation between each pair of consecutive generators:

    0 -> (+)_{i<r} O(-a_i - b_{i+1}) -> (+)_i O(-a_i - b_i) -> I_Z -> 0

The syzygy matrix is bidiagonal, with entries ``y^{b_{i+1}-b_i}`` and
``-x^{a_i-a_{i+1}}`` in column ``i``; entries are stored as signed exponent
pairs, so no polynomial arithmetic is involved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .diagram import as_diagram, to_generators


class MatrixEntry(NamedTuple):
    """A monomial entry ``sign * x^x_exp * y^y_exp`` at the given row."""

    row: int
    sign: int
    x_exp: int
    y_exp: int

    @property
    def degree(self) -> int:
        return self.x_exp + self.y_exp


@dataclass(frozen=True)
class FreeResolution:
    """Twist data and syzygy matrix, rows/columns in generator order."""

    generator_twists: tuple[int, ...]
    syzygy_twists: tuple[int, ...]
    matrix: tuple[tuple[MatrixEntry, MatrixEntry], ...]  # one pair per column

    @property
    def generator_count(self) -> int:
        return len(self.generator_twists)

    @property
    def syzygy_count(self) -> int:
        return len(self.syzygy_twists)


def minimal_free_resolution(diagram) -> FreeResolution:
    """Resolve the ideal sheaf I_Z of the diagram's minimal generators."""
    gens = to_generators(as_diagram(diagram))  # descending a, ascending b
    gen_twists = tuple(-(a + b) for a, b in gens)
    syz_twists = tuple(-(gens[i][0] + gens[i + 1][1]) for i in range(len(gens) - 1))
    columns = []
    for i in range(len(gens) - 1):
        (a_i, b_i), (a_next, b_next) = gens[i], gens[i + 1]
        columns.append(
            (
                MatrixEntry(i, 1, 0, b_next - b_i),
                MatrixEntry(i + 1, -1, a_i - a_next, 0),
            )
        )
    return FreeResolution(gen_twists, syz_twists, tuple(columns))


class BettiTable(NamedTuple):
    """Multiplicities of twist degrees in homological degrees 0 and 1."""

    beta0: dict[int, int]
    beta1: dict[int, int]


def betti_table(res: FreeResolution) -> BettiTable:
    return BettiTable(
        dict(sorted(Counter(-t for t in res.generator_twists).items())),
        dict(sorted(Counter(-t for t in res.syzygy_twists).items())),
    )


def _free_module_str(twists) -> str:
    if not twists:
        return "0"
    counts = Counter(twists)
    parts = []
    for twist in sorted(counts, reverse=True):
        power = counts[twist]
        parts.append(f"O({twist})" + (f"^{power}" if power > 1 else ""))
    return " (+) ".join(parts)


def render_resolution(res: FreeResolution) -> str:
    """One-line display of the resolution, syzygies first."""
    return (
        f"0 -> {_free_module_str(res.syzygy_twists)}"
        f" -> {_free_module_str(res.generator_twists)} -> I_Z -> 0"
    )


def _entry_str(entry: MatrixEntry) -> str:
    body = ""
    if entry.x_exp:
        body += "x" + (f"^{entry.x_exp}" if entry.x_exp > 1 else "")
    if entry.y_exp:
        body += "y" + (f"^{entry.y_exp}" if entry.y_exp > 1 else "")
    return ("-" if entry.sign < 0 else "") + (body or "1")


def render_matrix(res: FreeResolution) -> str:
    """The syzygy matrix as an aligned grid of monomials, one row per line."""
    rows = res.generator_count
    cols = res.syzygy_count
    cells = [["0"] * cols for _ in range(rows)]
    for col, entries in enumerate(res.matrix):
        for entry in entries:
            cells[entry.row][col] = _entry_str(entry)
    widths = [max(len(cells[r][c]) for r in range(rows)) for c in range(cols)]
    lines = []
    for r in range(rows):
        padded = [cells[r][c].rjust(widths[c]) for c in range(cols)]
        lines.append("[ " + "  ".join(padded) + " ]")
    return "\n".join(lines)


def render_betti(table: BettiTable) -> str:
    """Two-row Betti table keyed by twist degree."""
    degrees = sorted(set(table.beta0) | set(table.beta1))
    header = ["deg"] + [str(d) for d in degrees]
    row0 = ["b0"] + [str(table.beta0.get(d, 0)) for d in degrees]
    row1 = ["b1"] + [str(table.beta1.get(d, 0)) for d in degrees]
    widths = [max(len(h), len(a), len(b)) for h, a, b in zip(header, row0, row1)]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in (header, row0, row1)
    )

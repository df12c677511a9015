"""Exact rational linear algebra for rank certificates.

Everything is integer arithmetic but `find_support_vector`, whose member is
divided by its first nonzero entry into Fractions.  Elimination keeps its
(integer or Fraction) rows as sparse coprime integer vectors (gcd 1), so
intermediate values stay small, and every row it hands out is primitive
(gcd 1, first nonzero positive), so artifacts are byte-stable.

The central object is a *support subspace*: a subspace of R^k, given by a
basis, in which every nonzero vector has more than `codim` nonzero entries.
That property is certified combinatorially: for every coordinate set T of
size codim, deleting the T-columns of the basis must leave full row rank.
The explicit construction is Vandermonde-based: row i is
(i^1, ..., i^codim) followed by the i-th unit vector, and any square
selection of the Vandermonde columns is nonsingular because a polynomial
with t nonzero terms cannot have t positive roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


class LinalgError(ValueError):
    pass


class CertificationError(LinalgError):
    """A claimed support/rank property failed its exhaustive check."""


# ---------------------------------------------------------------------------
# primitive integer row utilities


def _integer_entries(entries: Iterable[tuple[int, Fraction | int]]) -> dict[int, int]:
    """Scale the nonzero (column, value) pairs of a rational row to coprime
    integers, keyed by column in the order given; the sign is left alone.

    Each entry contributes its numerator and denominator (an int is its own
    numerator over 1), so the scaling is integer-only and creates no
    Fraction."""
    entries = [(c, x) for c, x in entries if x]
    if not entries:
        return {}
    denom = lcm(*(x.denominator for _, x in entries))
    ints = {c: x.numerator * (denom // x.denominator) for c, x in entries}
    g = gcd(*ints.values())
    if g == 1:
        return ints
    return {c: v // g for c, v in ints.items()}


def _dense_primitive(
    entries: Iterable[tuple[int, Fraction | int]], ncols: int
) -> tuple[int, ...]:
    """The dense primitive integer row of the (column, value) entries:
    coprime integers, first nonzero (least column) positive."""
    out = [0] * ncols
    ints = _integer_entries(entries)
    sign = -1 if ints and ints[min(ints)] < 0 else 1
    for c, v in ints.items():
        out[c] = sign * v
    return tuple(out)


def primitive_int_row(row: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational row to coprime integers with positive leading sign.

    Rank matrices are mostly zeros, so only the nonzero entries are touched.
    """
    return _dense_primitive(enumerate(row), len(row))


def _echelon(
    rows: Iterable[Sequence[Fraction | int] | dict[int, Fraction | int]], ncols: int
) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """The one fraction-free forward elimination: echelon integer rows (one
    per pivot) and their first-nonzero pivot columns.

    A row is a dense sequence or a sparse mapping from column to value; it is
    carried as a mapping of its nonzero integer entries, so zeros are never
    visited.  Each update cross-multiplies by the pivot and divides the
    updated row by the gcd of its entries, so no rationals appear and the
    integers stay primitive.  A pivot column is the least first-nonzero
    column among the rows not yet used, and the pivot row is the first of
    them (in the current order) with an entry there: the choice a dense
    column scan makes, since every unused row is zero left of its first
    nonzero column.  The pivot columns are fixed by the row space, whatever
    the row order.
    """
    work = []
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        entries = _integer_entries(items)
        if entries:
            work.append(entries)
    leads = [min(r) for r in work]
    pivots: list[int] = []
    rank = 0
    n = len(work)
    while rank < n:
        col = min(leads[rank:])
        if col >= ncols:  # only rows eliminated to zero are left
            break
        idx = leads.index(col, rank)
        work[rank], work[idx] = work[idx], work[rank]
        leads[rank], leads[idx] = leads[idx], leads[rank]
        piv = work[rank][col]
        piv_rest = [(c, pv) for c, pv in work[rank].items() if c != col]
        for i in range(rank + 1, n):
            if leads[i] != col:
                continue
            x = work[i][col]
            new = {c: v * piv for c, v in work[i].items()}
            del new[col]
            for c, pv in piv_rest:
                v = new.get(c, 0) - x * pv
                if v:
                    new[c] = v
                else:
                    del new[c]
            if new:
                g = gcd(*new.values())
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                leads[i] = min(new)
            else:
                leads[i] = ncols
            work[i] = new
        rank += 1
        pivots.append(col)
    return work[:rank], tuple(pivots)


def reduce_rows(rows: Iterable[Sequence[Fraction | int]], ncols: int) -> list[tuple[int, ...]]:
    """Row-reduce to an independent echelon set of primitive integer rows.
    Which rows come out depends on the input order; their span does not."""
    echelon, _ = _echelon(rows, ncols)
    return [_dense_primitive(r.items(), ncols) for r in echelon]


def rank_profile_of_rows(
    rows: Iterable[Sequence[Fraction | int] | dict[int, Fraction | int]], ncols: int
) -> tuple[int, tuple[int, ...]]:
    """Exact rank plus the first-nonzero pivot columns.  A row may be a
    dense sequence or a sparse mapping from column to nonzero value."""
    _, pivots = _echelon(rows, ncols)
    return len(pivots), pivots


def nullspace_rows(rows: Iterable[Sequence[Fraction | int]], ncols: int) -> list[tuple[int, ...]]:
    """Deterministic primitive basis of {x : M x = 0}: free variables in
    column order, one at a time set to 1, pivots back-substituted."""
    echelon, pivots = _echelon(rows, ncols)
    pivot_of = dict(zip(pivots, echelon))
    free = [c for c in range(ncols) if c not in pivot_of]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for col in sorted(pivot_of, reverse=True):
            r = pivot_of[col]
            s = sum(v * x[c] for c, v in r.items() if c != col)
            if s:  # x[col] = -s / pivot, kept integral by scaling x by the pivot
                x = [xc * r[col] for xc in x]
                x[col] = -s
        basis.append(primitive_int_row(x))
    return basis


# ---------------------------------------------------------------------------
# support subspaces


def support(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """0-based positions of the nonzero coordinates."""
    return tuple(i for i, x in enumerate(vec) if x)


@dataclass(frozen=True)
class SupportSubspace:
    """Row space of `basis` inside R^ambient, carrying the guarantee that
    every nonzero member has at least codim + 1 nonzero coordinates."""

    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient - self.dim

    def certify(self) -> int:
        """Exhaustively verify the support property via column deletions;
        returns the number of rank checks performed."""
        k, l = self.ambient, self.codim
        if rank_profile_of_rows(self.basis, k)[0] != self.dim:
            raise CertificationError("basis rows are dependent")
        total = comb(k, l)
        for drop in combinations(range(k), l):
            keep = [c for c in range(k) if c not in drop]
            sub = [[row[c] for c in keep] for row in self.basis]
            if rank_profile_of_rows(sub, len(keep))[0] != self.dim:
                raise CertificationError(
                    f"support property fails: columns {drop} admit a vanishing combination"
                )
        return total

    def member(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        if len(coeffs) != self.dim:
            raise LinalgError("coefficient count must match the basis size")
        out = [0] * self.ambient
        for c, row in zip(coeffs, self.basis):
            if c:
                for j, x in enumerate(row):
                    if x:
                        out[j] += c * x
        return tuple(out)

    def vectors_supported_inside(self, allowed: Iterable[int]) -> list[tuple[int, ...]]:
        """Basis of the members whose support lies inside `allowed`
        (full-ambient integer rows)."""
        allowed = set(allowed)
        outside = [c for c in range(self.ambient) if c not in allowed]
        if not outside:
            return list(self.basis)
        # coefficient vectors c with (c . basis) vanishing on `outside`
        constraint = [[row[c] for row in self.basis] for c in outside]
        coeffs = nullspace_rows(constraint, self.dim)
        return [self.member(c) for c in coeffs]


def build_support_subspace(k: int, l: int) -> SupportSubspace:
    """The explicit Vandermonde construction: k - l rows (i^1..i^l | e_i).
    It is not certified here: a caller that relies on the support property
    runs `SupportSubspace.certify` once."""
    if not k >= l >= 0:
        raise LinalgError(f"need k >= l >= 0, got k={k}, l={l}")
    rows = []
    for i in range(1, k - l + 1):
        head = [i**j for j in range(1, l + 1)]
        tail = [1 if t == i - 1 else 0 for t in range(k - l)]
        rows.append(tuple(head + tail))
    return SupportSubspace(k, tuple(rows))


def find_support_vector(space: SupportSubspace, target: Iterable[int]) -> Vector:
    """The (projectively unique) member supported exactly on `target`,
    normalized so its first nonzero coordinate is 1.  `target` must have
    codim + 1 coordinates."""
    t = sorted(set(target))
    if len(t) != space.codim + 1:
        raise LinalgError(f"target must have {space.codim + 1} coordinates, got {len(t)}")
    if t and not 0 <= t[0] <= t[-1] < space.ambient:
        raise LinalgError("target coordinates out of range")
    members = space.vectors_supported_inside(t)
    if len(members) != 1:
        raise CertificationError(
            f"expected a one-dimensional solution for target {t}, got {len(members)}"
        )
    vec = members[0]
    if support(vec) != tuple(t):
        raise CertificationError(f"member support {support(vec)} differs from target {t}")
    lead = next(x for x in vec if x)
    return tuple(Fraction(x, lead) for x in vec)

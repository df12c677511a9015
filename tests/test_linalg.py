import random
from fractions import Fraction
from itertools import combinations

import pytest
from naive import naive_primitive_int_row

from percforge.linalg import (
    CertificationError,
    SupportSubspace,
    build_support_subspace,
    find_support_vector,
    nullspace_rows,
    primitive_int_row,
    rank_profile_of_rows,
    reduce_rows,
    support,
)


def brute_rank(rows, ncols):
    """Oracle: largest size of a linearly independent subset, decided by
    checking all square minors via Fraction Gaussian elimination."""

    def is_independent(subset):
        m = [list(map(Fraction, rows[i])) for i in subset]
        r = 0
        for col in range(ncols):
            p = next((i for i in range(r, len(m)) if m[i][col]), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            for i in range(len(m)):
                if i != r and m[i][col]:
                    f = m[i][col] / m[r][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        return r == len(m)

    best = 0
    for k in range(len(rows), 0, -1):
        if any(is_independent(s) for s in combinations(range(len(rows)), k)):
            best = k
            break
    return best


def test_primitive_row():
    assert primitive_int_row([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert primitive_int_row([-2, 4, -6]) == (1, -2, 3)
    assert primitive_int_row([0, 0]) == (0, 0)
    assert primitive_int_row([Fraction(0), 0, Fraction(0, 5)]) == (0, 0, 0)
    assert primitive_int_row([0, Fraction(-3, 4), 0, Fraction(3, 2)]) == (0, 1, 0, -2)
    assert primitive_int_row([2, Fraction(-1, 3), 0, Fraction(5, 6)]) == (12, -2, 0, 5)


def test_primitive_row_matches_fraction_reference():
    rng = random.Random(11)
    for _ in range(500):
        row = []
        for _ in range(rng.randrange(0, 9)):
            kind = rng.randrange(4)
            if kind == 0:
                row.append(0)
            elif kind == 1:
                row.append(Fraction(0))
            elif kind == 2:
                row.append(rng.randrange(-40, 41))
            else:
                row.append(Fraction(rng.randrange(-40, 41), rng.randrange(1, 25)))
        got = primitive_int_row(row)
        assert got == naive_primitive_int_row(row), row
        assert all(type(x) is int for x in got)


def test_rank_basics():
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    assert rank_profile_of_rows(identity, 5)[0] == 5
    assert rank_profile_of_rows([[0, 0], [0, 0]], 2)[0] == 0
    rank, pivots = rank_profile_of_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3)
    assert rank == 2
    assert pivots == (0, 1)


def test_rank_against_brute_oracle():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(n)]
        assert rank_profile_of_rows(rows, m)[0] == brute_rank(rows, m), rows


def test_reduce_rows_preserves_row_space():
    rng = random.Random(8)
    for _ in range(40):
        n, m = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        red = reduce_rows(rows, m)
        assert rank_profile_of_rows(red, m)[0] == len(red) == rank_profile_of_rows(rows, m)[0]
        combined = rows + list(red)
        assert rank_profile_of_rows(combined, m)[0] == len(red)


def test_nullspace():
    basis = nullspace_rows([[1, 1, 1]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    assert nullspace_rows([[1, 0], [0, 1]], 2) == []


def test_vandermonde_shape_and_example():
    space = build_support_subspace(4, 2)
    assert space.basis == ((1, 1, 1, 0), (2, 4, 0, 1))
    assert space.dim == 2 and space.codim == 2
    # all nonzero combinations have support >= 3
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == b == 0:
                continue
            vec = space.member([a, b])
            assert len(support(vec)) >= 3, (a, b, vec)


def test_identity_and_trivial_subspaces():
    space = build_support_subspace(5, 0)
    assert space.dim == 5
    assert [tuple(r) for r in space.basis] == [
        tuple(1 if i == j else 0 for j in range(5)) for i in range(5)
    ]
    empty = build_support_subspace(3, 3)
    assert empty.dim == 0


def test_certification_catches_bad_basis():
    # the all-ones line in R^2 has a member of support 1?  no - use an
    # explicitly broken claim: a standard basis vector claims codim 1
    bad = SupportSubspace(3, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(CertificationError):
        bad.certify()


def test_certification_counts_checks():
    space = build_support_subspace(6, 2)
    assert space.certify() == 15


def test_find_support_vector_examples():
    space = build_support_subspace(4, 0)
    for j in range(4):
        vec = find_support_vector(space, [j])
        assert support(vec) == (j,)
        assert vec[j] == 1
    space = build_support_subspace(4, 2)
    vec = find_support_vector(space, [0, 1, 2])
    assert vec == (Fraction(1), Fraction(1), Fraction(1), Fraction(0))
    for t in combinations(range(4), 3):
        vec = find_support_vector(space, t)
        assert support(vec) == t
        assert next(x for x in vec if x) == 1


def test_find_support_vector_all_targets():
    for k, l in [(5, 1), (5, 2), (6, 3), (7, 2)]:
        space = build_support_subspace(k, l)
        for t in combinations(range(k), l + 1):
            vec = find_support_vector(space, t)
            assert support(vec) == t


def test_vectors_supported_inside():
    space = build_support_subspace(6, 2)
    inside = space.vectors_supported_inside(range(6))
    assert len(inside) == space.dim
    sub = space.vectors_supported_inside([0, 1, 2])
    assert len(sub) == 1
    assert set(support(sub[0])) <= {0, 1, 2}
    assert space.vectors_supported_inside([0, 1]) == []


def test_support_certification_sweep_small():
    for k in range(1, 9):
        for l in range(0, min(k, 4) + 1):
            build_support_subspace(k, l).certify()

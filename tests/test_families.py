from fractions import Fraction

import pytest

from percforge.counts import DomainError, w_recurrence, wsat_hypercube
from percforge.families import (
    EdgeVectorFamily,
    FamilyError,
    assemble_lower_bound,
    build_edge_vectors_grid,
    build_edge_vectors_hypercube,
    family_rank,
    rank_certificate_from_json_doc,
    recheck_rank_certificate,
    verify_family,
    verify_star_relations,
)

from percforge.linalg import (
    SupportSubspace,
    build_support_subspace,
    rank_profile_of_rows,
    support,
)


def dense(family):
    """The family's sparse edge vectors as dense tuples of length target_dim.

    Checks the sparse invariant first: every stored key is a coordinate in
    range(target_dim) and every stored value is nonzero, so a stray or zero
    entry fails here instead of vanishing in the densified tuple."""
    w = family.target_dim
    for vec in family.vectors:
        assert all(0 <= j < w and x for j, x in vec.items()), vec
    return [tuple(vec.get(j, Fraction(0)) for j in range(w)) for vec in family.vectors]


def cube(d, r):
    """The grid-label family of Q_d, the only rank family there is."""
    return build_edge_vectors_grid((2,) * d, r)


def test_diagonal_case_is_standard_basis():
    for r in range(1, 4):
        fam = cube(r, r)
        ne = fam.spec.num_edges
        assert fam.target_dim == ne == r * (1 << (r - 1))
        for k, vec in enumerate(dense(fam)):
            assert support(vec) == (k,)


def test_cube_family_3_2():
    fam = cube(3, 2)
    assert fam.target_dim == 5
    assert family_rank(fam)[0] == 5
    assert verify_star_relations(fam) > 0


def test_cube_family_5_3():
    fam = cube(5, 3)
    assert fam.target_dim == wsat_hypercube(5, 3) == 23
    rank, pivots = family_rank(fam)
    assert rank == 23 and len(pivots) == 23
    # every 4-leaf star relation vanishes with all-nonzero coefficients
    checked = verify_star_relations(fam)
    assert checked == 32 * 5  # C(5,4) subsets of the 5 odd labels at each of 32 vertices


def test_zero_star_family():
    fam = cube(4, 0)
    assert fam.target_dim == 0
    assert all(vec == {} for vec in fam.vectors)
    assert all(vec == () for vec in dense(fam))


def test_grid_matches_cube_on_all_twos():
    # build_edge_vectors_hypercube is the grid builder on (2,) * d behind
    # its own domain check; every hypercube edge is odd, so each vertex
    # sees the d odd label coordinates
    for d, r in [(0, 0), (1, 1), (2, 1), (3, 2), (4, 3), (4, 2)]:
        fam = build_edge_vectors_hypercube(d, r)
        assert fam.target_dim == wsat_hypercube(d, r)
        assert dense(fam) == dense(cube(d, r))
        assert fam.subspace == cube(d, r).subspace
        for v in fam.spec.vertices():
            assert fam.incident_coords(v) == tuple(2 * i for i in range(d))
    with pytest.raises(DomainError):
        build_edge_vectors_hypercube(2, 3)


def test_grid_family_values():
    fam = build_edge_vectors_grid((3, 3), 2)
    assert fam.target_dim == 6
    assert family_rank(fam)[0] == 6
    fam = build_edge_vectors_grid((3, 3), 4)  # r = 2d: a basis family
    assert fam.target_dim == fam.spec.num_edges == 12
    for k, vec in enumerate(dense(fam)):
        assert support(vec) == (k,)


def test_rank_operation_examples():
    identity = [[int(i == j) for j in range(7)] for i in range(7)]
    assert rank_profile_of_rows(identity, 7)[0] == 7
    assert rank_profile_of_rows([[0, 0, 0]], 3)[0] == 0
    fam = cube(5, 3)
    assert family_rank(fam)[0] == wsat_hypercube(5, 3)


def test_assemble_q4_r3():
    cert = assemble_lower_bound((2, 2, 2, 2), 3)
    assert cert.rank == wsat_hypercube(4, 3) == 17
    assert cert.wsat_lower == 17
    assert cert.m_lower == 6
    # pivot edges really are independent
    rows = [dense(cert.family)[e] for e in cert.pivot_edges]
    assert rank_profile_of_rows(rows, cert.family.target_dim)[0] == cert.rank


def test_assemble_q5_r4_gives_13():
    cert = assemble_lower_bound((2,) * 5, 4)
    assert cert.m_lower == 13


def test_assemble_grid_3x3():
    cert = assemble_lower_bound((3, 3), 2)
    assert cert.wsat_lower == 6
    assert cert.m_lower == 3


def test_assemble_matches_counts_on_small_sweep():
    for dims in [(3,), (4,), (2, 2), (3, 2), (3, 3), (2, 2, 2), (2, 2, 3)]:
        for r in range(1, 2 * len(dims) + 1):
            cert = assemble_lower_bound(dims, r)
            assert cert.rank == w_recurrence(dims, r), (dims, r)


def test_verify_family_catches_corruption():
    fam = cube(3, 2)
    bad_vectors = list(fam.vectors)
    bad_vectors[0] = {j: x + 1 for j, x in enumerate(dense(fam)[0]) if x + 1}
    bad = EdgeVectorFamily(fam.spec, fam.r, fam.target_dim, tuple(bad_vectors), fam.subspace)
    with pytest.raises(FamilyError):
        verify_family(bad)


def test_rank_certificate_json_roundtrip_and_recheck():
    cert = assemble_lower_bound((3, 2), 2)
    doc = cert.to_json_doc()
    back = rank_certificate_from_json_doc(doc)
    assert back.rank == cert.rank
    assert back.pivot_edges == cert.pivot_edges
    assert dense(back.family) == dense(cert.family)
    recheck_rank_certificate(back)
    # tamper with a vector entry: recheck must refuse
    doc_bad = cert.to_json_doc()
    doc_bad["vectors"][0][0] = "7/3"
    with pytest.raises(FamilyError):
        recheck_rank_certificate(rank_certificate_from_json_doc(doc_bad))
    # tamper with the claimed bound
    doc_bad2 = cert.to_json_doc()
    doc_bad2["m_lower"] += 1
    with pytest.raises(FamilyError):
        recheck_rank_certificate(rank_certificate_from_json_doc(doc_bad2))


def test_one_rank_elimination_per_certificate(monkeypatch):
    import percforge.families as families

    real = families.rank_profile_of_rows
    shapes = []

    def counting(rows, ncols):
        rows = list(rows)
        shapes.append((len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(families, "rank_profile_of_rows", counting)
    cert = assemble_lower_bound((3, 2), 2)
    transposed = (cert.family.target_dim, cert.family.spec.num_edges)
    assert shapes == [transposed]
    shapes.clear()
    recheck_rank_certificate(rank_certificate_from_json_doc(cert.to_json_doc()))
    assert shapes == [transposed]


@pytest.mark.parametrize("dims, r", [((3, 4), 2), ((2, 2, 3), 3), ((2, 2, 2, 2), 2)])
def test_support_solves_are_memoized_within_one_build(monkeypatch, dims, r):
    # a build asks for repeated (subspace, target) pairs and solves each once;
    # the memo lives only as long as its build, so a second identical build
    # in the same process solves them all again
    import percforge.families as families

    real = families.find_support_vector
    calls = []

    def counting(space, target):
        calls.append((space, tuple(target)))
        return real(space, target)

    monkeypatch.setattr(families, "find_support_vector", counting)
    first = dense(build_edge_vectors_grid(dims, r))
    n_first = len(calls)
    assert n_first > 0 and len(set(calls)) == n_first
    second = dense(build_edge_vectors_grid(dims, r))
    assert len(calls) == 2 * n_first
    assert second == first


def test_fraction_strings_are_exact():
    cert = assemble_lower_bound((2, 2, 2), 2)
    doc = cert.to_json_doc()
    for vec, parsed in zip(doc["vectors"], dense(rank_certificate_from_json_doc(doc).family)):
        for s, x in zip(vec, parsed):
            assert Fraction(s) == x


def test_one_relation_pass_per_certificate(monkeypatch):
    import percforge.families as families

    real = families.verify_family
    calls = []

    def counting(family):
        calls.append(family.spec.dims)
        return real(family)

    def forbidden(family):
        raise AssertionError("verify_star_relations is not on the certify/recheck path")

    monkeypatch.setattr(families, "verify_family", counting)
    monkeypatch.setattr(families, "verify_star_relations", forbidden)
    cert = assemble_lower_bound((3, 2), 2)
    assert calls == [(3, 2)]
    calls.clear()
    recheck_rank_certificate(rank_certificate_from_json_doc(cert.to_json_doc()))
    assert calls == [(3, 2)]


@pytest.mark.parametrize("dims, r", [((3, 4), 2), ((2, 2, 2, 2), 2)])
def test_one_certification_per_certificate(monkeypatch, dims, r):
    # the root subspace is certified once per build and once per recheck;
    # the subspaces derived from it during the recursion are not
    real = SupportSubspace.certify
    calls = []

    def counting(space):
        calls.append((space.ambient, space.codim))
        return real(space)

    monkeypatch.setattr(SupportSubspace, "certify", counting)
    cert = assemble_lower_bound(dims, r)
    assert calls == [(2 * len(dims), r)]
    calls.clear()
    recheck_rank_certificate(rank_certificate_from_json_doc(cert.to_json_doc()))
    assert calls == [(2 * len(dims), r)]


def test_recheck_rejects_wrong_codimension():
    dims, r = (3, 2), 2
    doc = assemble_lower_bound(dims, r).to_json_doc()
    wrong = build_support_subspace(2 * len(dims), r + 1)  # codimension r+1
    wrong.certify()
    doc["subspace_basis"] = [[str(x) for x in row] for row in wrong.basis]
    with pytest.raises(FamilyError, match="codimension"):
        recheck_rank_certificate(rank_certificate_from_json_doc(doc))


def test_loader_parses_entries_like_fraction():
    import json
    import random
    from pathlib import Path

    doc = json.loads((Path(__file__).parent / "fixtures" / "rank_q3_r2.json").read_text())
    for vec, parsed in zip(doc["vectors"], dense(rank_certificate_from_json_doc(doc).family)):
        assert [Fraction(s) for s in vec] == list(parsed)
    rng = random.Random(5)
    odd = ["0", "-0", "00", "0/7", "6/4", "-10/15", "12345678901234567890/3"]

    def entry():
        if rng.random() < 0.3:
            return rng.choice(odd)
        return str(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)))

    doc["vectors"] = [[entry() for _ in vec] for vec in doc["vectors"]]
    for vec, parsed in zip(doc["vectors"], dense(rank_certificate_from_json_doc(doc).family)):
        assert [Fraction(s) for s in vec] == list(parsed)


@pytest.mark.parametrize(
    "entry", ["+3", " 4 ", "4\n", "1.5", "1e10000000", "1_0", "3/-4", "--1", "/2", "\u0663"]
)
def test_loader_accepts_only_what_the_writer_emits(entry):
    import json
    from pathlib import Path

    doc = json.loads((Path(__file__).parent / "fixtures" / "rank_q3_r2.json").read_text())
    doc["vectors"][0][0] = entry
    with pytest.raises(ValueError, match="not an integer or p/q fraction"):
        rank_certificate_from_json_doc(doc)

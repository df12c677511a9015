import random

import pytest

from percforge.bootstrap import percolates
from percforge.counts import w_recurrence, wsat_hypercube
from percforge.grid import GridError, GridSpec
from percforge.saturation import (
    CertCheck,
    SaturationCertificate,
    SaturationFailure,
    brute_force_wsat,
    build_wsat_grid,
    build_wsat_hypercube,
    derived_initial_set,
    greedy_saturate,
    verify_certificate,
)

from naive import naive_edge_endpoints


def test_build_hypercube_base_cases():
    c = build_wsat_hypercube(3, 3)
    assert c.num_base_edges == 12 and c.additions == ()
    assert verify_certificate(c).ok
    c0 = build_wsat_hypercube(4, 0)
    assert c0.base_edges == () and len(c0.additions) == 32
    assert verify_certificate(c0).ok


def test_build_hypercube_3_2():
    c = build_wsat_hypercube(3, 2)
    assert c.num_base_edges == wsat_hypercube(3, 2) == 5
    assert len(c.additions) == 7
    assert verify_certificate(c).ok
    # every witness names exactly r = 2 present edges at its center
    assert all(len(labels) == 2 for _, _, labels in c.additions)


def test_build_hypercube_sizes_and_verify():
    for d in range(0, 8):
        for r in range(0, d + 1):
            c = build_wsat_hypercube(d, r)
            assert c.num_base_edges == wsat_hypercube(d, r), (d, r)
            assert len(c.base_edges) + len(c.additions) == c.spec.num_edges
            assert verify_certificate(c).ok, (d, r)


def test_build_hypercube_split_structure():
    # no cross-direction edge is ever part of the base graph
    for d, r in [(3, 2), (4, 2), (5, 3)]:
        c = build_wsat_hypercube(d, r)
        spec = c.spec
        ends = naive_edge_endpoints(spec.dims)
        for e in c.base_edges:
            u, w = ends[e]
            assert spec.strides.index(w - u) + 1 < d


def test_build_grid_sizes_and_verify():
    for dims in [(3,), (6,), (3, 3), (3, 2), (4, 3), (2, 2, 3), (3, 3, 2), (2, 2, 2, 3)]:
        for r in range(0, 2 * len(dims) + 1):
            c = build_wsat_grid(dims, r)
            assert c.num_base_edges == w_recurrence(dims, r), (dims, r)
            assert verify_certificate(c).ok, (dims, r)


def test_build_grid_examples():
    c = build_wsat_grid((3, 3), 4)
    assert c.num_base_edges == 12 and c.additions == ()
    c = build_wsat_grid((3, 3), 2)
    assert c.num_base_edges == 6
    assert verify_certificate(c).ok
    c = build_wsat_grid((2, 2, 3), 3)
    assert c.num_base_edges == w_recurrence((2, 2, 3), 3)
    assert verify_certificate(c).ok


def test_grid_boundary_set_matches_count():
    # |Y| at the peeling step equals the closed boundary-layer sum
    for dims, r in [((3, 3), 2), ((4, 3), 3), ((2, 2, 3), 3), ((3, 3, 2), 4)]:
        d = len(dims)
        p = max(i + 1 for i, a in enumerate(dims) if a >= 3)
        g1_dims = dims[: p - 1] + (dims[p - 1] - 1,) + dims[p:]
        g1 = GridSpec(g1_dims)
        top = [v for v in g1.vertices() if g1.coord(v, p) == g1_dims[p - 1]]
        y = sum(1 for v in top if len(g1.incident_labels(v)) < r)
        expect = 0
        others = [a for i, a in enumerate(dims) if i != p - 1]
        for s_mask in range(1 << len(others)):
            size = bin(s_mask).count("1")
            if size < 2 * d - r:
                continue
            w = 1 << size
            for i, a in enumerate(others):
                if not (s_mask >> i) & 1:
                    w *= a - 2
            expect += w
        assert y == expect, (dims, r)


def test_verify_rejects_tampering():
    c = build_wsat_hypercube(3, 2)
    adds = list(c.additions)
    # swap two additions so a witness edge is no longer present in time
    swapped = SaturationCertificate(c.spec, c.star_size, c.base_edges, tuple([adds[-1]] + adds[1:-1] + [adds[0]]))
    res = verify_certificate(swapped)
    if res.ok:
        # swapping might happen to stay valid; force an unmistakable breakage
        res = verify_certificate(
            SaturationCertificate(c.spec, c.star_size, c.base_edges[:-1], c.additions)
        )
    assert not res.ok
    # dropping a base edge breaks coverage
    res = verify_certificate(SaturationCertificate(c.spec, c.star_size, c.base_edges[1:], c.additions))
    assert not res.ok
    # duplicated base edge
    dup = SaturationCertificate(c.spec, c.star_size, c.base_edges + (c.base_edges[0],), c.additions)
    assert not verify_certificate(dup).ok
    # witness label pointing at a missing edge
    edge, center, labels = c.additions[0]
    bad = SaturationCertificate(
        c.spec, c.star_size, c.base_edges, ((edge, center, labels[:-1] + (99,)),) + c.additions[1:]
    )
    assert not verify_certificate(bad).ok


def _replace_first(c, **changes):
    edge, center, labels = c.additions[0]
    first = (changes.get("edge", edge), changes.get("center", center), changes.get("labels", labels))
    return SaturationCertificate(c.spec, c.star_size, c.base_edges, (first,) + c.additions[1:])


def _off_edge_center(c):
    u, v = c.spec.endpoints(c.additions[0][0])
    return min(w for w in c.spec.vertices() if w not in (u, v))


def _lower_end(c):
    return c.spec.endpoints(c.additions[0][0])[0]


def _own_label(c):
    # the odd/even rule: label 2i - 1 when the lower endpoint's axis-i
    # coordinate is odd, else 2i
    u, w = c.spec.endpoints(c.additions[0][0])
    axis = c.spec.strides.index(w - u) + 1
    return 2 * axis - 1 if c.spec.coord(u, axis) % 2 == 1 else 2 * axis


_REPLAY_REJECTIONS = {
    "base edge out of range": lambda c: (
        SaturationCertificate(c.spec, c.star_size, c.base_edges + (12,), c.additions),
        None, "base edge 12 out of range",
    ),
    "duplicate base edge": lambda c: (
        SaturationCertificate(c.spec, c.star_size, c.base_edges + c.base_edges[:1], c.additions),
        None, f"duplicate base edge {c.base_edges[0]}",
    ),
    "addition out of range": lambda c: (
        _replace_first(c, edge=-1), 0, "edge -1 out of range",
    ),
    "already present": lambda c: (
        _replace_first(c, edge=c.base_edges[0]), 0, f"edge {c.base_edges[0]} already present",
    ),
    "center not on edge": lambda c: (
        _replace_first(c, center=_off_edge_center(c)), 0,
        f"center {_off_edge_center(c)} not on edge {c.additions[0][0]}",
    ),
    "center below the grid": lambda c: (
        _replace_first(c, center=-1), 0, f"center -1 not on edge {c.additions[0][0]}",
    ),
    "center wrapping onto the edge": lambda c: (
        _replace_first(c, center=_lower_end(c) - 8), 0,
        f"center {_lower_end(c) - 8} not on edge {c.additions[0][0]}",
    ),
    "center above the grid": lambda c: (
        _replace_first(c, center=8), 0, f"center 8 not on edge {c.additions[0][0]}",
    ),
    "wrong label count": lambda c: (
        _replace_first(c, labels=c.additions[0][2][:1]), 0, "witness needs 2 distinct labels",
    ),
    "label out of range": lambda c: (
        _replace_first(c, labels=(7,) + c.additions[0][2][1:]), 0, "label 7 out of range",
    ),
    "label absent at center": lambda c: (
        _replace_first(c, labels=(2,) + c.additions[0][2][1:]), 0,
        f"label 2 does not exist at {c.additions[0][1]}",
    ),
    "witness edge not yet present": lambda c: (
        _replace_first(c, labels=(_own_label(c),) + c.additions[0][2][1:]), 0,
        f"witness edge with label {_own_label(c)} not yet present",
    ),
    "coverage": lambda c: (
        SaturationCertificate(c.spec, c.star_size, c.base_edges, c.additions[:-1]),
        None, "base plus additions do not cover the edge set",
    ),
}


@pytest.mark.parametrize("case", sorted(_REPLAY_REJECTIONS))
def test_verify_reports_each_rejection(case):
    # Q3 with r = 2: 12 edges, witnesses name 2 of the odd labels 1, 3, 5
    c = build_wsat_hypercube(3, 2)
    assert c.spec.num_edges == 12 and c.star_size == 3
    bad, index, reason = _REPLAY_REJECTIONS[case](c)
    assert verify_certificate(bad) == CertCheck(False, index, reason)


def test_verify_accepts_center_on_upper_endpoint():
    # built certificates centre every addition on the lower endpoint, so
    # this is the case that tells a replay testing only that one apart:
    # path 1-2-3, base {2,3}, then {1,2} added as a 2-star at vertex 2,
    # whose other edge {2,3} carries label 2
    spec = GridSpec((3,))
    cert = SaturationCertificate(spec, 2, (1,), ((0, 1, (2,)),))
    assert spec.endpoints(0) == (0, 1)
    assert verify_certificate(cert) == CertCheck(True)


def test_greedy_full_base_is_trivial():
    spec = GridSpec((3, 3))
    c = greedy_saturate(spec, range(spec.num_edges), 3)
    assert isinstance(c, SaturationCertificate)
    assert c.additions == ()


def test_greedy_q2_single_edge():
    spec = GridSpec.hypercube(2)
    c = greedy_saturate(spec, [0], 2)
    assert isinstance(c, SaturationCertificate)
    assert len(c.additions) == 3
    assert verify_certificate(c).ok


def test_greedy_stuck_from_nothing():
    spec = GridSpec.hypercube(3)
    res = greedy_saturate(spec, [], 3)
    assert isinstance(res, SaturationFailure)
    assert len(res.frontier) == 12


def test_greedy_succeeds_exactly_on_built_certificates():
    for dims, r in [((3, 3), 2), ((2, 2, 2), 2), ((3, 2), 2)]:
        cert = build_wsat_grid(dims, r)
        replay = greedy_saturate(cert.spec, cert.base_edges, r + 1)
        assert isinstance(replay, SaturationCertificate)
        assert verify_certificate(replay).ok


def test_greedy_order_invariance():
    rng = random.Random(42)
    spec = GridSpec((3, 3))
    for _ in range(80):
        base = [e for e in range(spec.num_edges) if rng.random() < 0.5]
        star = rng.choice([2, 3])
        default = greedy_saturate(spec, base, star)
        for _ in range(4):
            order = list(range(spec.num_edges))
            rng.shuffle(order)
            shuffled = greedy_saturate(spec, base, star, order=order)
            assert isinstance(default, SaturationCertificate) == isinstance(
                shuffled, SaturationCertificate
            )
            if isinstance(shuffled, SaturationCertificate):
                assert verify_certificate(shuffled).ok


def test_brute_force_matches_closed_forms():
    assert brute_force_wsat(GridSpec.hypercube(2), 2).min_edges == wsat_hypercube(2, 1) == 1
    assert brute_force_wsat(GridSpec.hypercube(3), 3).min_edges == wsat_hypercube(3, 2) == 5
    assert brute_force_wsat(GridSpec((3, 3)), 3).min_edges == w_recurrence((3, 3), 2) == 6


def test_brute_force_witness_is_saturated():
    res = brute_force_wsat(GridSpec((3, 3)), 3)
    spec = GridSpec((3, 3))
    cert = greedy_saturate(spec, res.witness, 3)
    assert isinstance(cert, SaturationCertificate)
    assert verify_certificate(cert).ok


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force_wsat(GridSpec.hypercube(4), 3)


def test_derived_initial_set_extremes():
    spec = GridSpec((3, 3))
    assert derived_initial_set(spec, range(spec.num_edges), 2).is_full
    assert len(derived_initial_set(spec, [], 1)) == 0
    # with r above every degree, the requirement is the full degree
    full = derived_initial_set(spec, range(spec.num_edges), 99)
    assert full.is_full


def test_derived_initial_set_rejects_edges_outside_the_grid():
    # the same GridError greedy_saturate raises for the same base; a
    # negative index must not wrap around to the last edge
    spec = GridSpec((3,))
    for bad in ([-1], [2], [0, 5]):
        with pytest.raises(GridError, match="out of range"):
            derived_initial_set(spec, bad, 1)
        with pytest.raises(GridError, match="out of range"):
            greedy_saturate(spec, bad, 2)
    assert derived_initial_set(spec, [1], 1).indices() == [1, 2]


def test_derived_set_of_minimum_construction_does_not_percolate():
    # the degree-based bridge is one-directional: minimum saturated graphs
    # routinely fail to yield percolating seeds, and this instance does
    c = build_wsat_hypercube(4, 3)
    a0 = derived_initial_set(c.spec, c.base_edges, 3)
    assert not percolates(c.spec, a0, 3)


def test_percolating_derived_set_implies_greedy_success():
    rng = random.Random(7)
    hits = 0
    for _ in range(400):
        dims = rng.choice([(2, 2), (3, 2), (2, 2, 2), (3, 3)])
        spec = GridSpec(dims)
        r = rng.choice([1, 2])
        base = [e for e in range(spec.num_edges) if rng.random() < 0.6]
        a0 = derived_initial_set(spec, base, r)
        if percolates(spec, a0, r):
            hits += 1
            assert isinstance(greedy_saturate(spec, base, r + 1), SaturationCertificate)
    assert hits > 20  # the implication was actually exercised


def test_certificate_json_roundtrip():
    c = build_wsat_grid((3, 2), 2)
    doc = c.to_json_doc()
    back = SaturationCertificate.from_json_doc(doc)
    assert back == c
    assert verify_certificate(back).ok

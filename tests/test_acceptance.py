"""Acceptance suite: one test per criterion, exact tolerances, stated time
budgets asserted.  Each test prints a single pass line (visible with -s).

Grid instances are enumerated by non-decreasing side tuples, i.e. up to
axis order; permuted axes give isomorphic grids, and axis-order
independence of the counts is covered by criterion 8's property testing
and the unit suites.
"""

from __future__ import annotations

import random
import time

from percforge.bootstrap import closure, percolates
from percforge.counts import (
    grid_edge_count,
    m_lower_hypercube,
    w_recurrence,
    wsat_grid_closed,
    wsat_hypercube,
)
from percforge.families import assemble_lower_bound, build_edge_vectors_grid
from percforge.grid import GridSpec, VertexSet
from percforge.linalg import build_support_subspace
from percforge.saturation import (
    SaturationCertificate,
    brute_force_wsat,
    build_wsat_grid,
    build_wsat_hypercube,
    greedy_saturate,
    verify_certificate,
)
from percforge.search import SearchConfig, canonical_form, exact_min
from percforge.witnesses import build_r3, r3_target_size

from naive import dims_up_to


def _report(num: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_formula_agreement():
    t0 = time.time()
    for d in range(0, 11):
        for r in range(0, d + 1):
            v = wsat_hypercube(d, r)
            assert w_recurrence((2,) * d, r) == v, (d, r)
            if d >= 1 and r >= 1:
                assert wsat_grid_closed((2,) * d, r) == v, (d, r)
    _report(1, "formula agreement d<=10", t0, 1.0)


def test_criterion_2_oracle_equality():
    t0 = time.time()
    cases = [
        (GridSpec.hypercube(2), (1, 2)),
        (GridSpec.hypercube(3), (1, 2, 3)),
        (GridSpec((3, 3)), (1, 2)),
        (GridSpec((3, 2)), (1, 2, 3)),
    ]
    for spec, thresholds in cases:
        for r in thresholds:
            got = brute_force_wsat(spec, r + 1).min_edges
            assert got == w_recurrence(spec.dims, r), (spec.dims, r)
    _report(2, "brute-force oracle equality", t0, 120.0)


def test_criterion_3_construction_exactness():
    t0 = time.time()
    for d in range(0, 9):
        for r in range(0, d + 1):
            cert = build_wsat_hypercube(d, r)
            assert cert.num_base_edges == wsat_hypercube(d, r), (d, r)
            assert verify_certificate(cert).ok, (d, r)
    from math import prod

    for dims in dims_up_to(512, prod):
        for r in range(0, 2 * len(dims) + 1):
            cert = build_wsat_grid(dims, r)
            assert cert.num_base_edges == w_recurrence(dims, r), (dims, r)
            assert verify_certificate(cert).ok, (dims, r)
    _report(3, "construction exactness (Q<=8, grids <=512 vertices)", t0, 120.0)


def test_criterion_4_rank_certificates():
    t0 = time.time()
    instances = dims_up_to(256, grid_edge_count)
    assert (2,) * 5 in instances  # Q5, all r
    assert (2,) * 6 in instances  # Q6
    assert (3, 3) in instances and (2, 3, 3) in instances
    for dims in instances:
        for r in range(0, 2 * len(dims) + 1):
            if r == 0:
                fam = build_edge_vectors_grid(dims, 0)
                assert fam.target_dim == 0
                continue
            cert = assemble_lower_bound(dims, r)
            assert cert.rank == w_recurrence(dims, r), (dims, r)
            assert cert.wsat_lower == cert.rank
            assert cert.m_lower == -(-cert.rank // r)
    _report(4, "rank certificates on every grid with <=256 edges", t0, 300.0)


def test_criterion_5_threshold3_two_sided():
    t0 = time.time()
    expect_prefix = [4, 6, 8, 10, 13, 16, 19, 23]
    for d in range(3, 17):
        witness = build_r3(d)
        target = r3_target_size(d)
        if d - 3 < len(expect_prefix):
            assert target == expect_prefix[d - 3]
        assert witness.size == target, d
        assert m_lower_hypercube(d, 3).ceil_value == target, d
        assert percolates(witness.spec, witness.vertices, 3), d
    _report(5, "two-sided threshold-3 minimum, d=3..16", t0, 60.0)


def test_criterion_6_exact_minimum_q5_r4():
    t0 = time.time()
    res = exact_min(SearchConfig(GridSpec.hypercube(5), 4))
    assert res.seed_lower == 13
    assert res.exact_m == 14
    assert res.status == "exact"
    assert res.witness is not None and res.witness.size == 14
    assert percolates(res.spec, res.witness.vertices, 4)
    assert res.proof_of_optimality
    assert res.exhaustion is not None
    assert res.exhaustion.k == 13
    assert res.exhaustion.group_order == 3840
    # every orbit of 13-subsets was visited: the count equals the
    # group-theoretic orbit count computed independently from cycle types
    from naive import burnside_subset_orbits
    from percforge.search import grid_automorphisms

    orbits_13 = burnside_subset_orbits(grid_automorphisms(res.spec), 32, 13)
    assert res.exhaustion.canonical_sets == orbits_13 == 98804
    _report(6, "exact minimum m(Q5, 4) = 14 with layer-13 exhaustion", t0, 1800.0)


def test_criterion_7_support_subspace_certification():
    t0 = time.time()
    for k in range(1, 13):
        for l in range(0, min(k, 6) + 1):
            space = build_support_subspace(k, l)
            checks = space.certify()
            from math import comb

            assert checks == comb(k, l)
    _report(7, "support-subspace general-position certification", t0, 60.0)


def test_criterion_8_property_suites():
    t0 = time.time()
    pool = [GridSpec((2, 2, 2)), GridSpec((3, 3)), GridSpec((2, 2, 2, 2)), GridSpec((3, 2, 2))]

    rng = random.Random(20260808)
    for _ in range(1000):  # closure monotonicity
        spec = rng.choice(pool)
        r = rng.randrange(1, 5)
        small = rng.getrandbits(spec.num_vertices)
        big = small | rng.getrandbits(spec.num_vertices)
        cs = closure(spec, VertexSet(spec, small), r).final
        cb = closure(spec, VertexSet(spec, big), r).final
        assert cs.issubset(cb)

    rng = random.Random(31337)
    for _ in range(1000):  # closure round bound
        spec = rng.choice(pool)
        r = rng.randrange(1, 5)
        a0 = VertexSet(spec, rng.getrandbits(spec.num_vertices))
        trace = closure(spec, a0, r)
        assert len(trace.rounds) <= spec.num_vertices - len(a0)

    rng = random.Random(424242)
    small_pool = [GridSpec((3, 3)), GridSpec((2, 2, 2)), GridSpec((3, 2))]
    for _ in range(1000):  # greedy order invariance
        spec = rng.choice(small_pool)
        star = rng.choice([2, 3])
        base = [e for e in range(spec.num_edges) if rng.random() < 0.55]
        default = greedy_saturate(spec, base, star)
        order = list(range(spec.num_edges))
        rng.shuffle(order)
        shuffled = greedy_saturate(spec, base, star, order=order)
        assert isinstance(default, SaturationCertificate) == isinstance(
            shuffled, SaturationCertificate
        )

    rng = random.Random(777)
    sym_pool = [GridSpec.hypercube(3), GridSpec.hypercube(4)]
    for _ in range(1000):  # canonicalization soundness
        spec = rng.choice(sym_pool)
        s = VertexSet(spec, rng.getrandbits(spec.num_vertices))
        c = canonical_form(spec, s)
        r = rng.randrange(1, 4)
        assert percolates(spec, s, r) == percolates(spec, c, r)

    _report(8, "randomized property suites (4 x 1000 instances)", t0, 300.0)

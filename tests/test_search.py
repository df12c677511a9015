import random
from itertools import combinations
from math import prod

import numpy as np
import pytest

from percforge.bootstrap import closure, closure_mask, percolates
from percforge.counts import DomainError, m_lower_hypercube
from percforge.grid import GridSpec, VertexSet
from percforge.search import (
    SearchBudgetExceeded,
    SearchConfig,
    _CanonicalSearch,
    _CanonicalTables,
    _MaskKernel,
    canonical_form,
    count_canonical_subsets,
    exact_min,
    exhaust_layer,
    grid_automorphisms,
)
from percforge.witnesses import build_r3


def test_group_orders():
    assert len(grid_automorphisms(GridSpec.hypercube(3))) == 48
    assert len(grid_automorphisms(GridSpec.hypercube(5))) == 3840
    assert len(grid_automorphisms(GridSpec((3, 3)))) == 8
    assert len(grid_automorphisms(GridSpec((3, 2)))) == 4
    assert len(grid_automorphisms(GridSpec((4, 3, 3)))) == 16


def test_automorphisms_match_coordinate_reference():
    from naive import naive_automorphisms

    grids = [(2,), (5,), (3, 2), (2, 3), (3, 3), (4, 3, 3), (3, 4, 3), (2, 2, 2), (2, 3, 2, 3),
             (2, 2, 2, 2, 2)]
    for dims in grids:
        assert grid_automorphisms(GridSpec(dims)) == naive_automorphisms(dims), dims


def test_automorphisms_preserve_adjacency():
    from naive import naive_edge_endpoints

    rng = random.Random(1)
    for dims in [(2, 2, 2), (3, 3), (3, 2)]:
        spec = GridSpec(dims)
        perms = grid_automorphisms(spec)
        edges = {frozenset(e) for e in naive_edge_endpoints(dims)}
        for perm in rng.sample(perms, min(6, len(perms))):
            mapped = {frozenset((perm[u], perm[v])) for u, v in edges}
            assert mapped == edges


def test_canonical_form_properties():
    spec = GridSpec.hypercube(3)
    rng = random.Random(4)
    for _ in range(50):
        s = VertexSet(spec, rng.getrandbits(8))
        c = canonical_form(spec, s)
        assert len(c) == len(s)
        assert canonical_form(spec, c) == c
        # canonical image is lexicographically least in its orbit
        for perm in random.Random(0).sample(grid_automorphisms(spec), 10):
            image = tuple(sorted(perm[v] for v in s))
            assert tuple(c.indices()) <= image


def test_canonical_orbit_count_q3_pairs():
    assert count_canonical_subsets(GridSpec.hypercube(3), 2) == 3


def test_orbit_counts_match_burnside():
    from naive import burnside_subset_orbits

    for spec, kmax in [(GridSpec.hypercube(3), 5), (GridSpec((3, 2)), 4), (GridSpec((3, 3)), 3)]:
        perms = grid_automorphisms(spec)
        for k in range(1, kmax + 1):
            got = count_canonical_subsets(spec, k)
            expect = burnside_subset_orbits(perms, spec.num_vertices, k)
            assert got == expect, (spec.dims, k)


SMALL_GRIDS = [(2, 2, 2), (3, 3), (2, 3), (2, 2, 3)]


def test_levels_are_the_canonical_forms_of_all_subsets():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        n = spec.num_vertices
        # above the maximum degree nothing spreads, so no level stops early
        search = _CanonicalSearch(spec, 2 * spec.d + 1, None)
        for k in range(1, n):
            found, _, count = search.decide_layer(k)
            assert not found
            level = search.level.tolist()
            assert level == sorted(level) and count == len(level)
            expect = {
                canonical_form(spec, VertexSet.from_indices(spec, combo)).mask
                for combo in combinations(range(n), k)
            }
            assert set(level) == expect, (dims, k)


def test_exhaustion_records_match_burnside():
    from naive import burnside_subset_orbits

    cases = [(GridSpec(dims), r) for dims in SMALL_GRIDS for r in range(1, 2 * len(dims) + 1)]
    cases.append((GridSpec((2, 7)), 2))
    for spec, r in cases:
        perms = grid_automorphisms(spec)
        res = exact_min(SearchConfig(spec, r, seed_lower=1))
        assert res.status == "exact"
        for k in range(1, res.exact_m):
            found, _, record = exhaust_layer(spec, r, k)
            assert not found
            assert record.canonical_sets == burnside_subset_orbits(perms, spec.num_vertices, k)
            if k == res.exact_m - 1:
                assert res.exhaustion == record
    # 2x7 has 266 orbits of 4-sets; a closure filter on sorted prefixes reaches only 260
    res = exact_min(SearchConfig(GridSpec((2, 7)), 2, seed_lower=1))
    assert res.exhaustion.k == 4 and res.exhaustion.canonical_sets == 266


def test_tables_agree_with_reference_canonicalization():
    # vertex-transitive (Q4, Q5, 2x2x2), 64 vertices with the top bit in use
    # (2x2x4x4), and grids with several orbits, where m* picks the orbit
    grids = [(2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 4, 4), (2, 2, 2), (3, 3), (2, 3), (2, 3, 3),
             (2, 2, 4), (3, 5)]
    for dims in grids:
        spec = GridSpec(dims)
        n = spec.num_vertices
        tables = _CanonicalTables(spec)
        rng = random.Random(9)
        masks = [rng.getrandbits(n) for _ in range(200)]
        masks += [0, (1 << n) - 1, 1 << (n - 1)] + [1 << v for v in range(n)]
        sparse = [rng.sample(range(n), rng.randrange(2, min(n, 9))) for _ in range(40)]
        masks += [sum(1 << v for v in vs) for vs in sparse]
        got = tables.canonicalize(np.array(masks, dtype=np.uint64))
        for m, g in zip(masks, got.tolist()):
            expect = canonical_form(spec, VertexSet(spec, m))
            assert VertexSet(spec, g) == expect, (dims, m)


def test_mask_kernel_matches_int_kernel():
    from percforge.bootstrap import _bitsliced_round, infect_step_mask

    rng = random.Random(12)
    for dims in [(2, 2, 2), (3, 3), (2, 2, 2, 2), (3, 2, 2)]:
        spec = GridSpec(dims)
        for r in range(0, 2 * spec.d + 2):
            kernel = _MaskKernel(spec, r)
            masks = [rng.getrandbits(spec.num_vertices) for _ in range(64)]
            arr = np.array(masks, dtype=np.uint64)
            one_round = _bitsliced_round(arr, kernel.plan, r, kernel.full)
            out = kernel.closure(arr)
            assert arr.tolist() == masks
            for m, s, o in zip(masks, one_round.tolist(), out.tolist()):
                assert infect_step_mask(spec, m, r) == s
                assert closure_mask(spec, m, r) == o
    # sparse masks on long thin grids take many rounds to settle, so masks
    # leave the kernel's active set at many different rounds
    for dims in [(2, 12), (3, 8), (2, 2, 6)]:
        spec = GridSpec(dims)
        kernel = _MaskKernel(spec, 2)
        masks = [
            sum(1 << v for v in rng.sample(range(spec.num_vertices), rng.randint(1, 6)))
            for _ in range(300)
        ]
        arr = np.array(masks, dtype=np.uint64)
        out = kernel.closure(arr)
        assert arr.tolist() == masks
        rounds = set()
        for m, o in zip(masks, out.tolist()):
            trace = closure(spec, VertexSet(spec, m), 2)
            assert trace.final.mask == closure_mask(spec, m, 2) == o
            rounds.add(len(trace.rounds))
        assert len(rounds) >= 6, (dims, rounds)


def test_canonicalization_preserves_percolation():
    rng = random.Random(77)
    for dims in [(2, 2, 2), (2, 2, 2, 2)]:
        spec = GridSpec(dims)
        for _ in range(150):
            s = VertexSet(spec, rng.getrandbits(spec.num_vertices))
            c = canonical_form(spec, s)
            for r in (1, 2, 3):
                assert percolates(spec, s, r) == percolates(spec, c, r)


def _first_percolating_child(spec: GridSpec, r: int, k: int) -> int:
    """The first child, in level order, of the canonical (k-1)-sets whose
    closure (by the Python-int kernel) is the whole grid."""
    search = _CanonicalSearch(spec, r, None)
    assert search.decide_layer(k - 1)[0] is False
    children = search._children(search.level).tolist()
    return next(c for c in children if closure_mask(spec, c, r) == spec.full_vertex_mask)


def test_chunked_witness_layer_returns_the_first_percolating_child(monkeypatch):
    import percforge.search as search_module
    from naive import dims_up_to

    grids = dims_up_to(12, prod)
    assert len(grids) == 20
    for dims in grids:
        spec = GridSpec(dims)
        for r in range(1, 2 * spec.d + 1):
            default = exact_min(SearchConfig(spec, r)).to_json_doc()
            with monkeypatch.context() as m:
                m.setattr(search_module, "_CLOSURE_CHUNK", 3)
                result = exact_min(SearchConfig(spec, r))
            assert result.to_json_doc() == default, (dims, r)
            assert result.exact_m == len(result.witness.vertices.indices())
            first = _first_percolating_child(spec, r, result.exact_m)
            assert result.witness.vertices.mask == first, (dims, r)


def test_exact_min_small_hypercubes():
    assert exact_min(SearchConfig(GridSpec.hypercube(3), 3)).exact_m == 4
    assert exact_min(SearchConfig(GridSpec.hypercube(3), 1)).exact_m == 1
    res = exact_min(SearchConfig(GridSpec.hypercube(4), 3))
    assert res.exact_m == 6
    assert res.witness is not None and res.witness.size == 6
    assert percolates(res.spec, res.witness.vertices, 3)


def test_exact_min_matches_naive_enumeration():
    for d in (3, 4):
        spec = GridSpec.hypercube(d)
        for r in range(1, d + 1):
            fast = exact_min(SearchConfig(spec, r))
            slow = exact_min(SearchConfig(spec, r, symmetry=False))
            assert fast.exact_m == slow.exact_m, (d, r)


def test_exact_min_with_low_seed_exhausts_layers():
    res = exact_min(SearchConfig(GridSpec.hypercube(4), 3, seed_lower=5))
    assert res.exact_m == 6
    assert res.proof_of_optimality
    assert res.exhaustion == res.exhaustion.__class__(5, 384, res.exhaustion.canonical_sets)
    assert res.exhaustion.canonical_sets == 27


def test_exact_min_grid():
    res = exact_min(SearchConfig(GridSpec((3, 3)), 2))
    assert res.exact_m == 3
    res = exact_min(SearchConfig(GridSpec((3, 2)), 2))
    assert res.exact_m == 3  # matches the refined threshold-2 lower bound


def test_exact_min_degree_bound():
    res = exact_min(SearchConfig(GridSpec.hypercube(2), 5))
    assert res.exact_m == 4
    assert res.seed_basis == "degree-bound"


def test_exact_min_requires_positive_threshold():
    with pytest.raises(DomainError):
        exact_min(SearchConfig(GridSpec.hypercube(3), 0))


def test_bound_sanity():
    for d, r in [(3, 2), (4, 3), (4, 2), (5, 3)]:
        res = exact_min(SearchConfig(GridSpec.hypercube(d), r))
        assert res.exact_m >= m_lower_hypercube(d, r).ceil_value
    assert exact_min(SearchConfig(GridSpec.hypercube(5), 3)).exact_m == build_r3(5).size


def test_exhaust_layer_examples():
    spec = GridSpec.hypercube(3)
    found, witness, record = exhaust_layer(spec, 1, 1)
    assert found and witness.size == 1
    found, witness, record = exhaust_layer(spec, 3, 3)
    assert not found
    assert record.k == 3 and record.group_order == 48
    assert record.canonical_sets > 0
    # exhaustion agrees with the naive route
    found_naive, _, record_naive = exhaust_layer(spec, 3, 3, symmetry=False)
    assert not found_naive


def test_exhaust_layer_pads_when_smaller_sets_percolate():
    # at threshold 1 every single vertex percolates; layer 3 must still be
    # decided correctly by padding a smaller percolating set
    spec = GridSpec.hypercube(3)
    found, witness, record = exhaust_layer(spec, 1, 3)
    assert found and witness.size == 3
    assert percolates(spec, witness.vertices, 1)


def test_budget_flagging():
    res = exact_min(SearchConfig(GridSpec.hypercube(4), 3, node_budget=10))
    assert res.status == "budget"
    assert res.exact_m is None


def test_naive_layers_honour_the_node_budget():
    spec = GridSpec.hypercube(4)
    for budget in (0, 1, 10, 100):
        res = exact_min(SearchConfig(spec, 3, node_budget=budget, symmetry=False, seed_lower=1))
        assert res.status == "budget" and res.exact_m is None
        assert res.nodes_explored == budget + 1
    with pytest.raises(SearchBudgetExceeded):
        exhaust_layer(spec, 3, 5, node_budget=100, symmetry=False)
    # a budget the whole search fits in changes nothing
    free = exact_min(SearchConfig(spec, 3, symmetry=False, seed_lower=1))
    roomy = exact_min(SearchConfig(spec, 3, symmetry=False, seed_lower=1,
                                   node_budget=free.nodes_explored))
    assert roomy == free and free.status == "exact"


def test_canonical_layers_honour_the_node_budget():
    spec = GridSpec.hypercube(4)
    for budget in (0, 1, 10, 100):
        res = exact_min(SearchConfig(spec, 3, node_budget=budget, seed_lower=1))
        assert res.status == "budget" and res.exact_m is None
        assert res.nodes_explored == budget + 1
    with pytest.raises(SearchBudgetExceeded):
        exhaust_layer(spec, 3, 5, node_budget=100)
    # a budget the whole search fits in changes nothing
    free = exact_min(SearchConfig(spec, 3, seed_lower=1))
    roomy = exact_min(SearchConfig(spec, 3, seed_lower=1, node_budget=free.nodes_explored))
    assert roomy == free and free.status == "exact"


def test_search_result_json():
    res = exact_min(SearchConfig(GridSpec.hypercube(3), 2))
    doc = res.to_json_doc()
    assert doc["kind"] == "search-result"
    assert doc["exact_m"] == res.exact_m
    assert doc["witness"]["size"] == res.witness.size

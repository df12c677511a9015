import random

import pytest

from percforge.grid import GridError, GridSpec, VertexSet, parse_grid

from naive import (
    naive_edge_endpoints,
    naive_edges,
    naive_incident_labels,
    naive_label_table,
    naive_neighbors,
    naive_vertices,
)

SMALL_GRIDS = [(2,), (3,), (4,), (2, 2), (3, 3), (3, 2), (2, 3, 2), (2, 2, 2), (3, 3, 2), (5, 4)]
# 1-D, hypercubes, mixed sides and a 4-axis grid
LABEL_GRIDS = [(2,), (7,), (2, 2), (2, 2, 2, 2, 2), (3, 3, 3), (2, 5), (4, 3, 2), (3, 2, 4, 5)]


def _labels_naming(spec, v, k):
    """The labels j with e(v, j) = edge k."""
    return [j for j in range(1, 2 * spec.d + 1) if spec.label_to_edge_index(v, j) == k]


def _naive_lower_and_axis(spec):
    """Every edge of the coordinate oracle as (lower endpoint, 1-based axis)."""
    return [(u, spec.strides.index(w - u) + 1) for u, w in naive_edge_endpoints(spec.dims)]


def test_index_coords_roundtrip():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        seen = set()
        for v in spec.vertices():
            coords = spec.coords_of(v)
            assert spec.index_of(coords) == v
            seen.add(coords)
        assert seen == set(naive_vertices(dims))


def test_neighbors_against_naive():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        for v in spec.vertices():
            got = {spec.coords_of(u) for u in spec.neighbors(v)}
            assert got == set(naive_neighbors(dims, spec.coords_of(v)))


def test_neighbors_examples():
    q3 = GridSpec.hypercube(3)
    # corner 000 (coords all 1) has its d coordinate successors
    corner = q3.index_of((1, 1, 1))
    assert sorted(q3.neighbors(corner)) == [
        q3.index_of((2, 1, 1)),
        q3.index_of((1, 2, 1)),
        q3.index_of((1, 1, 2)),
    ]
    g33 = GridSpec((3, 3))
    assert len(g33.neighbors(g33.index_of((2, 2)))) == 4
    assert len(g33.neighbors(g33.index_of((1, 1)))) == 2
    with pytest.raises(GridError):
        g33.neighbors(9)


def test_incident_labels_against_naive():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        for v in spec.vertices():
            assert set(spec.incident_labels(v)) == naive_incident_labels(dims, spec.coords_of(v))


def test_incident_labels_examples():
    g33 = GridSpec((3, 3))
    assert g33.incident_labels(g33.index_of((1, 1))) == (1, 3)
    path4 = GridSpec((4,))
    # vertex with coordinate 3: edge {2,3} is even (label 2), edge {3,4} odd (label 1)
    assert path4.incident_labels(path4.index_of((3,))) == (1, 2)
    q3 = GridSpec.hypercube(3)
    for v in q3.vertices():
        assert q3.incident_labels(v) == (1, 3, 5)


def test_edge_label_examples():
    path3 = GridSpec((3,))
    v1, v2, v3 = (path3.index_of((c,)) for c in (1, 2, 3))
    ends = naive_edge_endpoints(path3.dims)
    e12, e23 = ends.index((v1, v2)), ends.index((v2, v3))
    assert _labels_naming(path3, v1, e12) == [1]
    assert _labels_naming(path3, v2, e12) == [1]
    assert _labels_naming(path3, v3, e23) == [2]
    qd = GridSpec.hypercube(4)
    for k, (u, w) in enumerate(naive_edge_endpoints(qd.dims)):
        for v in (u, w):
            labels = _labels_naming(qd, v, k)
            assert len(labels) == 1 and labels[0] % 2 == 1
    assert _labels_naming(path3, v3, e12) == []


def test_label_edge_roundtrip():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        table = naive_label_table(dims)
        for v in spec.vertices():
            for j in spec.incident_labels(v):
                assert spec.label_to_edge_index(v, j) == table[v, j]
            absent = set(range(1, 2 * spec.d + 1)) - set(spec.incident_labels(v))
            for j in absent:
                assert spec.label_to_edge_index(v, j) == -1


def test_each_edge_carries_two_labels():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        for k, (u, w) in enumerate(naive_edge_endpoints(dims)):
            lu = _labels_naming(spec, u, k)
            lw = _labels_naming(spec, w, k)
            assert len(lu) == 1
            assert lu == lw  # same parity class seen from both ends


def test_degree_sum_and_edge_count():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        assert spec.num_edges == len(naive_edges(dims))
        assert sum(len(spec.incident_labels(v)) for v in spec.vertices()) == 2 * spec.num_edges
        by_formula = sum(
            (a - 1) * spec.num_vertices // a for a in spec.dims
        )
        assert spec.num_edges == by_formula


def test_edge_enumeration_is_a_bijection():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        order = [spec.endpoints(k) for k in spec.edges_in_order()]
        assert len(order) == len(set(order)) == spec.num_edges
        assert {frozenset(map(spec.coords_of, e)) for e in order} == naive_edges(dims)
        # axis-major, then by lower endpoint
        keys = [(spec.strides.index(w - u) + 1, u) for u, w in order]
        assert keys == sorted(keys)


def test_edge_endpoints_match_naive():
    for dims in SMALL_GRIDS + LABEL_GRIDS:
        spec = GridSpec(dims)
        expect = naive_edge_endpoints(dims)
        lower, upper = spec.edge_endpoints
        assert list(zip(lower, upper)) == expect
        # the form perfbench/test_checks.py compares with
        assert [spec.endpoints(e) for e in spec.edges_in_order()] == expect
        for bad in (-1, spec.num_edges):
            with pytest.raises(GridError):
                spec.endpoints(bad)
    assert [list(ends) for ends in GridSpec.hypercube(0).edge_endpoints] == [[], []]


@pytest.mark.parametrize(
    "dims", LABEL_GRIDS + [dims for dims in SMALL_GRIDS if dims not in LABEL_GRIDS]
)
def test_label_lookup_matches_label_table(dims):
    # the stride formula against a table labelled from coordinates, absent
    # labels included
    spec = GridSpec(dims)
    table = naive_label_table(dims)
    for v in spec.vertices():
        for j in range(1, 2 * spec.d + 1):
            assert spec.label_to_edge_index(v, j) == table.get((v, j), -1), (v, j)


def test_edge_enumeration_golden():
    # the global enumeration is a serialization contract: certificates
    # reference edges by these positions; each edge is (lower endpoint, axis)
    def lower_and_axis(spec):
        return [(u, spec.strides.index(w - u) + 1) for u, w in zip(*spec.edge_endpoints)]

    assert lower_and_axis(GridSpec((3, 2))) == [
        (0, 1), (1, 1), (3, 1), (4, 1),
        (0, 2), (1, 2), (2, 2),
    ]
    assert lower_and_axis(GridSpec.hypercube(3)) == [
        (0, 1), (2, 1), (4, 1), (6, 1),
        (0, 2), (1, 2), (4, 2), (5, 2),
        (0, 3), (1, 3), (2, 3), (3, 3),
    ]


def test_parse_and_format():
    assert parse_grid("Q5") == GridSpec((2,) * 5)
    assert parse_grid("q3") == GridSpec.hypercube(3)
    assert parse_grid("3x3x2") == GridSpec((3, 3, 2))
    assert str(GridSpec((3, 3, 2))) == "3x3x2"
    for bad in ["", "Qx", "3x1", "0x2", "foo", "3x-2"]:
        with pytest.raises(GridError):
            parse_grid(bad)


def test_vertex_count_limit():
    with pytest.raises(GridError):
        GridSpec((2,) * 29)


def test_vertex_set_basics():
    spec = GridSpec((3, 3))
    s = VertexSet.from_indices(spec, [0, 4, 8])
    assert len(s) == 3
    assert 4 in s and 5 not in s
    assert s.indices() == [0, 4, 8]
    t = VertexSet.from_coords(spec, [(1, 1), (2, 2)])
    assert (s & t).indices() == [0, 4]
    assert (s | t).indices() == [0, 4, 8]
    assert (s - t).indices() == [8]
    assert VertexSet.full(spec).is_full
    assert t.issubset(s)
    with pytest.raises(GridError):
        VertexSet.from_indices(spec, [9])
    with pytest.raises(GridError):
        s | VertexSet.empty(GridSpec((2, 2)))


def test_vertex_set_indices_match_bit_scan():
    rng = random.Random(5)
    for dims in [(3, 3), (5, 7), (2,) * 8]:
        spec = GridSpec(dims)
        n = spec.num_vertices
        masks = [0, spec.full_vertex_mask, 1 << (n - 1), 1]
        masks += [rng.getrandbits(n) for _ in range(20)]
        masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(20)]
        for mask in masks:
            expect = [v for v in range(n) if mask >> v & 1]
            assert VertexSet(spec, mask).indices() == expect
            assert list(VertexSet(spec, mask)) == expect


def test_coord_masks_match_per_vertex_scan():
    rng = random.Random(7)
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        for _ in range(5):
            axis = rng.randrange(1, spec.d + 1)
            c = rng.randrange(1, spec.dims[axis - 1] + 2)
            mask = spec.coord_ge_mask(axis, c)
            expect = 0
            for v in spec.vertices():
                if spec.coord(v, axis) >= c:
                    expect |= 1 << v
            assert mask == expect


def test_slab_indices_match_coordinate_round_trip():
    # a slab keeps the axis with `length` values from offset + 1; a slice
    # (length 1) drops it, and both list parent indices in sub-grid order
    for dims in SMALL_GRIDS + [(4, 3, 5), (2, 5, 3, 2)]:
        spec = GridSpec(dims)
        for axis in range(1, spec.d + 1):
            a = dims[axis - 1]
            for length in range(1, a + 1):
                for offset in range(a - length + 1):
                    sub_dims = dims[: axis - 1] + (length,) + dims[axis:]
                    expect = []
                    for coords in naive_vertices(sub_dims):
                        coords = list(coords)
                        coords[axis - 1] += offset
                        expect.append(spec.index_of(coords))
                    assert spec.slab_indices(axis, offset, length) == expect
                    if length == 1 and spec.d > 1:
                        side = GridSpec(dims[: axis - 1] + dims[axis:])
                        expect = []
                        for v in side.vertices():
                            coords = list(side.coords_of(v))
                            coords.insert(axis - 1, offset + 1)
                            expect.append(spec.index_of(coords))
                        assert spec.slab_indices(axis, offset, 1) == expect
    with pytest.raises(GridError):
        GridSpec((3, 3)).slab_indices(1, 2, 2)


def test_slab_edge_indices_match_coordinate_round_trip():
    # every sub-grid edge, moved to the parent by coordinates, sits at the
    # listed position of the parent's edge list; a slice has no edges on
    # its own axis and numbers the others as the dropped-axis grid does
    for dims in SMALL_GRIDS + [(4, 3, 5), (2, 5, 3, 2)]:
        spec = GridSpec(dims)
        position = {e: k for k, e in enumerate(_naive_lower_and_axis(spec))}

        def parent_edge(coords, axis):
            return position[spec.index_of(coords), axis]

        for axis in range(1, spec.d + 1):
            a = dims[axis - 1]
            for length in range(1, a + 1):
                for offset in range(a - length + 1):
                    if length > 1:
                        sub = GridSpec(dims[: axis - 1] + (length,) + dims[axis:])
                        expect = []
                        for u, q in _naive_lower_and_axis(sub):
                            coords = list(sub.coords_of(u))
                            coords[axis - 1] += offset
                            expect.append(parent_edge(coords, q))
                    elif spec.d > 1:
                        sub = GridSpec(dims[: axis - 1] + dims[axis:])
                        expect = []
                        for u, q in _naive_lower_and_axis(sub):
                            coords = list(sub.coords_of(u))
                            coords.insert(axis - 1, offset + 1)
                            expect.append(parent_edge(coords, q if q < axis else q + 1))
                    else:
                        expect = []
                    assert spec.slab_edge_indices(axis, offset, length) == expect
            # the edges between slices offset and offset + 1, in slice order
            for offset in range(a - 1):
                lows = spec.slab_indices(axis, offset, 1)
                expect = [parent_edge(spec.coords_of(v), axis) for v in lows]
                assert spec._edge_slab(axis, axis, offset, 1) == expect
    with pytest.raises(GridError):
        GridSpec((3, 3)).slab_edge_indices(2, 1, 3)


def test_edge_index_rejects_non_edges():
    spec = GridSpec((3, 2, 4))
    for bad in (-1, spec.num_edges):
        with pytest.raises(GridError):
            spec.endpoints(bad)
    # no edge index joins a vertex outside the grid, or one at the top of an
    # axis, to the vertex one stride above it
    top = spec.index_of((3, 1, 1))  # top coordinate of axis 1
    pairs = set(zip(*spec.edge_endpoints))
    for v, axis in [
        (-1, 1),
        (spec.num_vertices, 1),
        (top, 1),
        (spec.index_of((1, 2, 1)), 2),
        (spec.index_of((2, 1, 4)), 3),
    ]:
        assert (v, v + spec.strides[axis - 1]) not in pairs
    up = (top, top + spec.strides[1])
    assert spec.endpoints(naive_edge_endpoints(spec.dims).index(up)) == up

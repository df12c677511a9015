import random

import pytest

from percforge.grid import EdgeId, GridError, GridSpec, VertexSet, parse_grid

from naive import naive_edges, naive_incident_labels, naive_neighbors, naive_vertices

SMALL_GRIDS = [(2,), (3,), (4,), (2, 2), (3, 3), (3, 2), (2, 3, 2), (2, 2, 2), (3, 3, 2), (5, 4)]


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
    e12 = EdgeId(path3.index_of((1,)), 1)
    e23 = EdgeId(path3.index_of((2,)), 1)
    assert path3.edge_label(e12, path3.index_of((1,))).label == 1
    assert path3.edge_label(e12, path3.index_of((2,))).label == 1
    assert path3.edge_label(e23, path3.index_of((3,))).label == 2
    qd = GridSpec.hypercube(4)
    for e in qd.edges():
        u, w = qd.endpoints(e)
        assert qd.edge_label(e, u).label % 2 == 1
        assert qd.edge_label(e, w).label % 2 == 1
    with pytest.raises(GridError):
        path3.edge_label(e12, path3.index_of((3,)))


def test_label_edge_roundtrip():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        for v in spec.vertices():
            for j in spec.incident_labels(v):
                e = spec.resolve_label(v, j)
                assert spec.edge_label(e, v) == (v, j)
            absent = set(range(1, 2 * spec.d + 1)) - set(spec.incident_labels(v))
            for j in absent:
                with pytest.raises(GridError):
                    spec.resolve_label(v, j)


def test_each_edge_carries_two_labels():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        for e in spec.edges():
            u, w = spec.endpoints(e)
            lu = spec.edge_label(e, u)
            lw = spec.edge_label(e, w)
            assert lu.label == lw.label  # same parity class seen from both ends
            assert spec.resolve_label(u, lu.label) == e
            assert spec.resolve_label(w, lw.label) == e


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
        order = spec.edges_in_order()
        assert len(order) == spec.num_edges
        for k, e in enumerate(order):
            assert spec.edge_index(e) == k
            assert spec.edge_from_index(k) == e
            # enumeration position equals the documented axis-major,
            # lower-endpoint mixed-radix rank
            assert spec._edge_rank(e) == k
        # axis-major: axis numbers are non-decreasing along the enumeration
        axes = [e.axis for e in order]
        assert axes == sorted(axes)


def test_label_table_matches_resolve():
    for dims in SMALL_GRIDS:
        spec = GridSpec(dims)
        for v in spec.vertices():
            present = set(spec.incident_labels(v))
            for j in range(1, 2 * spec.d + 1):
                idx = spec.label_to_edge_index(v, j)
                if j in present:
                    assert idx == spec.edge_index(spec.resolve_label(v, j))
                else:
                    assert idx == -1


@pytest.mark.parametrize(
    "dims", [(2,), (7,), (2, 2), (2, 2, 2, 2, 2), (3, 3, 3), (2, 5), (4, 3, 2), (3, 2, 4, 5)]
)
def test_label_lookup_matches_label_table(dims):
    # the stride formula against the table that certificate replay reads:
    # 1-D, hypercubes, mixed sides and a 4-axis grid, absent labels included
    spec = GridSpec(dims)
    width = 2 * spec.d
    table = spec._label_table
    for v in spec.vertices():
        for j in range(1, width + 1):
            assert spec.label_to_edge_index(v, j) == table[v * width + j - 1], (v, j)


def test_edge_enumeration_golden():
    # the global enumeration is a serialization contract: certificates
    # reference edges by these positions
    spec = GridSpec((3, 2))
    assert [tuple(e) for e in spec.edges_in_order()] == [
        (0, 1), (1, 1), (3, 1), (4, 1),
        (0, 2), (1, 2), (2, 2),
    ]
    q3 = GridSpec.hypercube(3)
    assert [tuple(e) for e in q3.edges_in_order()] == [
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
        position = {e: k for k, e in enumerate(spec.edge_list)}

        def parent_edge(coords, axis):
            return position[EdgeId(spec.index_of(coords), axis)]

        for axis in range(1, spec.d + 1):
            a = dims[axis - 1]
            for length in range(1, a + 1):
                for offset in range(a - length + 1):
                    if length > 1:
                        sub = GridSpec(dims[: axis - 1] + (length,) + dims[axis:])
                        expect = []
                        for u, q in sub.edge_list:
                            coords = list(sub.coords_of(u))
                            coords[axis - 1] += offset
                            expect.append(parent_edge(coords, q))
                    elif spec.d > 1:
                        sub = GridSpec(dims[: axis - 1] + dims[axis:])
                        expect = []
                        for u, q in sub.edge_list:
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
    top = spec.index_of((3, 1, 1))  # top coordinate of axis 1
    for bad in [
        EdgeId(-1, 1),
        EdgeId(spec.num_vertices, 1),
        EdgeId(0, 0),
        EdgeId(0, spec.d + 1),
        EdgeId(top, 1),
        EdgeId(spec.index_of((1, 2, 1)), 2),
        EdgeId(spec.index_of((2, 1, 4)), 3),
    ]:
        with pytest.raises(GridError):
            spec.edge_index(bad)
    assert spec.edge_index(EdgeId(top, 2)) == spec.edge_list.index(EdgeId(top, 2))

"""Weakly star-saturated spanning subgraphs and their replayable certificates.

A spanning subgraph F of G is weakly (G, S_s)-saturated when the missing
edges can be appended one at a time, each completing a star with s leaves at
the moment it arrives.  A certificate records F (``base_edges``) plus the
ordered additions, each with an explicit star witness: the center vertex and
the labels of s-1 edges at that center that are already present.  Replaying
the certificate is linear in the number of edges.

``build_wsat_hypercube`` and ``build_wsat_grid`` emit certificates of the
minimum possible size (the counts in :mod:`percforge.counts`): hypercubes
split along the last direction into a saturated bottom copy and a
one-smaller-star saturated top copy with no cross edges; grids peel one
layer off the highest axis of length >= 3, keeping only the cross edges
into the low-degree boundary set Y.

Edges are referenced everywhere by their index in the grid's global
enumeration, which makes certificates byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, Union

from .counts import DomainError, w_recurrence
from .grid import (
    GridError,
    GridSpec,
    VertexSet,
    _json_field,
    _json_int,
    _json_list,
    _peel_axis,
    parse_grid,
)


@dataclass(frozen=True)
class StarWitness:
    """One edge addition: the labels name the other present star edges."""

    edge: int
    center: int
    labels: tuple[int, ...]


@dataclass(frozen=True)
class SaturationCertificate:
    spec: GridSpec
    star_size: int
    base_edges: tuple[int, ...]
    additions: tuple[StarWitness, ...]

    @property
    def num_base_edges(self) -> int:
        return len(self.base_edges)

    def to_json_doc(self) -> dict:
        return {
            "kind": "saturation-certificate",
            "spec": str(self.spec),
            "star_size": self.star_size,
            "base_edges": list(self.base_edges),
            "additions": [
                {"edge": a.edge, "center": a.center, "labels": list(a.labels)}
                for a in self.additions
            ],
        }

    @classmethod
    def from_json_doc(cls, doc: dict) -> "SaturationCertificate":
        """Load a document written by `to_json_doc`; wrong types and a star
        size below 1 raise ValueError with a one-line reason.  Nothing is
        verified here."""
        if not isinstance(doc, dict) or doc.get("kind") != "saturation-certificate":
            raise ValueError("not a saturation certificate document")
        spec = parse_grid(_json_field(doc, "spec"))
        additions = []
        for a in _json_list(_json_field(doc, "additions"), "additions"):
            if not isinstance(a, dict):
                raise ValueError("every addition must be an object")
            try:  # plain lookups: the per-addition loop is most of the loading time
                edge, center, labels = a["edge"], a["center"], a["labels"]
            except KeyError as exc:
                raise ValueError(f"missing field {exc.args[0]!r}") from None
            labels = tuple(_json_int(x, "label") for x in _json_list(labels, "labels"))
            additions.append(
                StarWitness(_json_int(edge, "edge"), _json_int(center, "center"), labels)
            )
        base_edges = _json_list(_json_field(doc, "base_edges"), "base_edges")
        base = tuple(_json_int(e, "base edge") for e in base_edges)
        star_size = _json_int(_json_field(doc, "star_size"), "star_size")
        if star_size < 1:
            raise ValueError(f"star_size must be >= 1, got {star_size}")
        return cls(spec, star_size, base, tuple(additions))


@dataclass(frozen=True)
class SaturationFailure:
    """Greedy closure got stuck; frontier lists the edges never addable."""

    spec: GridSpec
    star_size: int
    frontier: tuple[int, ...]


@dataclass(frozen=True)
class CertCheck:
    ok: bool
    index: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class ExplicitGraph:
    """Tiny edge-list graph, only used by the brute-force oracle."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        norm = []
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def from_grid(cls, spec: GridSpec) -> "ExplicitGraph":
        return cls(spec.num_vertices, tuple(zip(*spec.edge_endpoints)))

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class WsatOracleResult:
    graph: ExplicitGraph
    star_size: int
    min_edges: int
    witness: tuple[int, ...]


# ---------------------------------------------------------------------------
# verification and greedy replay


def verify_certificate(cert: SaturationCertificate) -> CertCheck:
    """Replay a certificate, checking coverage and every star witness.

    A vertex lies on an edge exactly when it is one of the edge's two
    endpoints, so comparing the center with both entries of the endpoint
    table is the incidence test.  It also keeps every later lookup inside
    the grid: no out-of-range center, negative or not, equals an endpoint.
    """
    spec = cert.spec
    ne = spec.num_edges
    s = cert.star_size
    if s < 1:
        return CertCheck(False, None, "star size must be >= 1")
    lower, upper = spec.edge_endpoints
    label_edge = spec.label_to_edge_index
    width = 2 * spec.d
    present = bytearray(ne)
    for e in cert.base_edges:
        if not 0 <= e < ne:
            return CertCheck(False, None, f"base edge {e} out of range")
        if present[e]:
            return CertCheck(False, None, f"duplicate base edge {e}")
        present[e] = 1
    for i, add in enumerate(cert.additions):
        if not 0 <= add.edge < ne:
            return CertCheck(False, i, f"edge {add.edge} out of range")
        if present[add.edge]:
            return CertCheck(False, i, f"edge {add.edge} already present")
        center = add.center
        if center != lower[add.edge] and center != upper[add.edge]:
            return CertCheck(False, i, f"center {center} not on edge {add.edge}")
        if len(add.labels) != s - 1 or len(set(add.labels)) != len(add.labels):
            return CertCheck(False, i, f"witness needs {s - 1} distinct labels")
        for j in add.labels:
            if not 1 <= j <= width:
                return CertCheck(False, i, f"label {j} out of range")
            other = label_edge(center, j)
            if other < 0:
                return CertCheck(False, i, f"label {j} does not exist at {center}")
            if not present[other]:
                return CertCheck(False, i, f"witness edge with label {j} not yet present")
        present[add.edge] = 1
    if present.count(1) != ne:
        return CertCheck(False, None, "base plus additions do not cover the edge set")
    return CertCheck(True)


def _first_present_labels(spec: GridSpec, present: int, center: int, count: int) -> tuple[int, ...]:
    out = []
    for j in spec.incident_labels(center):
        if (present >> spec.label_to_edge_index(center, j)) & 1:
            out.append(j)
            if len(out) == count:
                return tuple(out)
    raise GridError(f"vertex {center} has fewer than {count} present edges")


def greedy_saturate(
    spec: GridSpec,
    base_edges: Iterable[int],
    star_size: int,
    order: Sequence[int] | None = None,
) -> Union[SaturationCertificate, SaturationFailure]:
    """Repeatedly add the first addable missing edge (an edge is addable when
    one endpoint already has star_size - 1 present edges).  Because additions
    only raise degrees, an addable edge stays addable, so greedy succeeds
    exactly when the base is weakly saturated for this star."""
    ne = spec.num_edges
    scan = list(order) if order is not None else list(range(ne))
    if sorted(scan) != list(range(ne)):
        raise ValueError("order must be a permutation of all edge indices")
    lower, upper = spec.edge_endpoints
    present = 0
    deg = [0] * spec.num_vertices
    base = sorted(set(base_edges))
    for e in base:
        if not 0 <= e < ne:
            raise GridError(f"base edge {e} out of range")
        present |= 1 << e
        deg[lower[e]] += 1
        deg[upper[e]] += 1
    need = star_size - 1
    additions: list[StarWitness] = []
    while True:
        chosen = None
        for e in scan:
            if (present >> e) & 1:
                continue
            u, v = lower[e], upper[e]
            center = u if deg[u] >= need else (v if deg[v] >= need else None)
            if center is not None:
                chosen = (e, center)
                break
        if chosen is None:
            break
        e, center = chosen
        labels = _first_present_labels(spec, present, center, need)
        additions.append(StarWitness(e, center, labels))
        present |= 1 << e
        deg[lower[e]] += 1
        deg[upper[e]] += 1
    if present == (1 << ne) - 1:
        return SaturationCertificate(spec, star_size, tuple(base), tuple(additions))
    frontier = tuple(e for e in range(ne) if not (present >> e) & 1)
    return SaturationFailure(spec, star_size, frontier)


def _greedy_decides(graph: ExplicitGraph, present_edges: int, star_size: int) -> bool:
    """Decision form of the greedy closure on an explicit graph."""
    edges = graph.edges
    ne = len(edges)
    deg = [0] * graph.num_vertices
    present = present_edges
    for e in range(ne):
        if (present >> e) & 1:
            u, v = edges[e]
            deg[u] += 1
            deg[v] += 1
    need = star_size - 1
    missing = [e for e in range(ne) if not (present >> e) & 1]
    progress = True
    while missing and progress:
        progress = False
        still = []
        for e in missing:
            u, v = edges[e]
            if deg[u] >= need or deg[v] >= need:
                present |= 1 << e
                deg[u] += 1
                deg[v] += 1
                progress = True
            else:
                still.append(e)
        missing = still
    return not missing


def brute_force_wsat(
    graph: Union[ExplicitGraph, GridSpec], star_size: int, limit: int = 24
) -> WsatOracleResult:
    """Exact minimum weakly saturated edge count by exhaustive search over
    edge subsets in increasing size, deciding each with the greedy closure.

    Edges whose both endpoints have degree < star_size can never complete a
    star and are therefore forced into every candidate subgraph.
    """
    if isinstance(graph, GridSpec):
        graph = ExplicitGraph.from_grid(graph)
    ne = len(graph.edges)
    if ne > limit:
        raise ValueError(f"oracle limited to {limit} edges, graph has {ne}")
    deg = graph.degrees()
    forced = [
        e for e, (u, v) in enumerate(graph.edges) if deg[u] < star_size and deg[v] < star_size
    ]
    free = [e for e in range(ne) if e not in set(forced)]
    forced_mask = 0
    for e in forced:
        forced_mask |= 1 << e
    for k in range(len(free) + 1):
        for subset in combinations(free, k):
            mask = forced_mask
            for e in subset:
                mask |= 1 << e
            if _greedy_decides(graph, mask, star_size):
                witness = tuple(sorted(forced + list(subset)))
                return WsatOracleResult(graph, star_size, len(witness), witness)
    raise AssertionError("the full edge set is always weakly saturated")


def derived_initial_set(spec: GridSpec, edges: Iterable[int], r: int) -> VertexSet:
    """Vertices whose degree in the subgraph reaches min(r, full degree).
    An edge index outside the grid raises GridError, as in `greedy_saturate`."""
    ne = spec.num_edges
    deg = [0] * spec.num_vertices
    lower, upper = spec.edge_endpoints
    for e in set(edges):
        if not 0 <= e < ne:
            raise GridError(f"edge {e} out of range")
        deg[lower[e]] += 1
        deg[upper[e]] += 1
    picked = [
        v for v in spec.vertices() if deg[v] >= min(r, len(spec.incident_labels(v)))
    ]
    return VertexSet.from_indices(spec, picked)


# ---------------------------------------------------------------------------
# minimum constructions
#
# Internal representation during recursion: the local grid's global edge
# indices, for the base and for each (edge, center, labels) addition; a
# parent maps a part's edges through `slab_edge_indices` and its centers
# through `slab_indices`.

_Parts = tuple[list[int], list[tuple[int, int, tuple[int, ...]]]]


def _all_edge_parts(spec: GridSpec) -> _Parts:
    return list(range(spec.num_edges)), []


def _edgeless_parts(spec: GridSpec) -> _Parts:
    return [], [(k, u, ()) for k, u in enumerate(spec.edge_endpoints[0])]


def _cube_parts(d: int, r: int) -> _Parts:
    """Hypercube recursion: bottom copy keeps the same star, top copy drops
    one leaf, and the cross direction is filled in between."""
    spec = GridSpec.hypercube(d)
    if r == 0:
        return _edgeless_parts(spec)
    if d == r:
        return _all_edge_parts(spec)
    off = 1 << (d - 1)
    base0, adds0 = _cube_parts(d - 1, r)
    base1, adds1 = _cube_parts(d - 1, r - 1)
    bottom = spec.slab_edge_indices(d, 0, 1)
    top = spec.slab_edge_indices(d, 1, 1)
    base = [bottom[e] for e in base0] + [top[e] for e in base1]
    additions = [(bottom[e], center, labels) for e, center, labels in adds0]
    first_r = tuple(2 * i - 1 for i in range(1, r + 1))
    cross = spec._edge_slab(d, d, 0, 1)
    additions += [(cross[v], v, first_r) for v in range(off)]
    top_label = 2 * d - 1
    additions += [(top[e], c + off, labels + (top_label,)) for e, c, labels in adds1]
    return base, additions


def _grid_parts(dims: tuple[int, ...], r: int) -> _Parts:
    """Peel layers off the highest axis of length >= 3: each layer m glues
    the already-saturated slab (axis-p coordinate < m) to a saturated copy
    of the dropped-axis grid in the new top slice, with base cross edges
    only into the low-degree boundary set Y.  All artifacts are produced
    directly in final-grid indices, so one layer costs one slice."""
    d = len(dims)
    if d == 0:
        return [], []
    spec = GridSpec(dims)
    if r == 0:
        return _edgeless_parts(spec)
    if r == 2 * d:
        return _all_edge_parts(spec)
    if all(a == 2 for a in dims):
        if r > d:
            return _all_edge_parts(spec)
        return _cube_parts(d, r)
    p, bottom_dims, side_dims = _peel_axis(dims)
    a_p = dims[p - 1]
    vstride = spec.strides[p - 1]

    side_spec = GridSpec(side_dims)  # no axes when d = 1: one vertex
    bottom_base, bottom_adds = _grid_parts(bottom_dims, r)
    side_base, side_adds = _grid_parts(side_dims, r - 1)

    # the a_p = 2 slab keeps its coordinates; only strides differ
    emb_bottom = spec.slab_indices(p, 0, 2)
    edges_bottom = spec.slab_edge_indices(p, 0, 2)
    base = [edges_bottom[e] for e in bottom_base]
    additions = [(edges_bottom[e], emb_bottom[c], labels) for e, c, labels in bottom_adds]

    def remap_label(label: int) -> int:
        # side axis q is axis q of the grid below p and axis q + 1 from p on
        return label if label < 2 * p - 1 else label + 2

    emb_side1 = spec.slab_indices(p, 0, 1)
    side_labels = [
        tuple(remap_label(x) for x in side_spec.incident_labels(v))
        for v in side_spec.vertices()
    ]
    side_adds_mapped = [
        (e, emb_side1[c], tuple(remap_label(x) for x in labels)) for e, c, labels in side_adds
    ]

    # Y and the stage-2 witness labels depend only on the parity of the
    # top slice's inner boundary label, not on the layer itself
    in_y = [1 + len(labels) < r for labels in side_labels]
    witness_by_parity = {}
    for taubar in (2 * p - 1, 2 * p):
        witness_by_parity[taubar] = [
            tuple(sorted(labels + (taubar,)))[:r] for labels in side_labels
        ]

    for m in range(3, a_p + 1):
        tau = 2 * p - 1 if (m - 1) % 2 == 1 else 2 * p
        taubar = 2 * p - 1 if tau == 2 * p else 2 * p
        top_off = (m - 2) * vstride  # slice with axis-p coordinate m - 1
        new_off = (m - 1) * vstride  # slice with axis-p coordinate m
        witnesses = witness_by_parity[taubar]
        cross = spec._edge_slab(p, p, m - 2, 1)  # from the top slice to the new one
        new_edges = spec.slab_edge_indices(p, m - 1, 1)
        base += [e for e, y in zip(cross, in_y) if y]
        base += [new_edges[e] for e in side_base]
        additions += [
            (e, emb_side1[i] + top_off, witnesses[i]) for i, e in enumerate(cross) if not in_y[i]
        ]
        additions += [
            (new_edges[e], c + new_off, labels + (tau,)) for e, c, labels in side_adds_mapped
        ]
    return base, additions


def build_wsat_hypercube(d: int, r: int) -> SaturationCertificate:
    """The grid certificate of Q_d = (2,) * d, with exactly
    wsat_hypercube(d, r) base edges."""
    if not d >= r >= 0:
        raise DomainError(f"need d >= r >= 0, got d={d}, r={r}")
    return build_wsat_grid((2,) * d, r)


def build_wsat_grid(dims, r: int) -> SaturationCertificate:
    """Certificate with exactly w_recurrence(dims, r) base edges; no axes is
    the one-vertex grid."""
    dims = tuple(int(a) for a in dims)
    if any(a < 2 for a in dims):
        raise DomainError(f"all sides must be >= 2, got {dims}")
    if not 0 <= r <= 2 * len(dims):
        raise DomainError(f"need 0 <= r <= 2d, got r={r}")
    base, adds = _grid_parts(dims, r)
    additions = tuple(StarWitness(e, center, labels) for e, center, labels in adds)
    cert = SaturationCertificate(GridSpec(dims), r + 1, tuple(sorted(base)), additions)
    assert cert.num_base_edges == w_recurrence(dims, r)
    return cert

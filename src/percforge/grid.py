"""Axis-aligned grid graphs: the product of paths [a_1] x ... x [a_d].

Vertices carry 1-based coordinates (v_1, ..., v_d) with v_i in {1, ..., a_i}
and are indexed row-major with axis 1 fastest.  Two vertices are adjacent
when they differ by exactly 1 in exactly one coordinate.  The hypercube Q_d
is the all-twos grid.

An edge is its index in one global enumeration: axis-major, then by the
index of its lower endpoint (the one with the smaller coordinate on the
edge's axis).  ``edge_endpoints`` lists both endpoints of every index.

Edges are labelled from both endpoints: the edge on axis i whose smaller
endpoint coordinate is odd is "odd" and carries label 2i-1, otherwise it is
"even" and carries label 2i.  At any vertex the (at most two) incident edges
on one axis always receive the two different labels of that axis, so the
edge e(v, j) is well defined; ``label_to_edge_index(v, j)`` gives its index.
On hypercubes every edge is odd, and the odd labels 1, 3, 5, ...
correspond to the usual directions 1..d.

Edge sets and vertex sets are dense bitsets (Python ints) over fixed global
enumerations, so every serialized artifact is byte-stable across runs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Iterator

MAX_VERTICES = 1 << 28


class GridError(ValueError):
    """Invalid grid specification, vertex, edge, or label."""


def _stride_embedding(base: int, stride: int, side: int, offset: int, length: int, total: int):
    """Positions, in a row-major grid of `total` points numbered from `base`
    (side lengths >= 1), of the sub-grid that keeps `length` of the `side`
    values of one axis from `offset` on; the axes below it span `stride`
    points.  With inner = stride * length and outer = stride * side, point u
    maps to base + u % inner + stride * offset + (u // inner) * outer."""
    starts = range(base + stride * offset, base + total, stride * side)
    return [hi + lo for hi in starts for lo in range(stride * length)]


def _peel_axis(dims: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The split of the grid recursion, for dims with a side >= 3: the
    highest 1-based axis p of length >= 3, the dims with axis p cut to 2 (the
    bottom slab) and the dims with axis p removed (the side grid, whose
    copies fill the slices 3..a_p one layer at a time)."""
    p = max(i + 1 for i, a in enumerate(dims) if a >= 3)
    return p, dims[: p - 1] + (2,) + dims[p:], dims[: p - 1] + dims[p:]


def _tile_mask(block: int, period: int, total: int) -> int:
    """Tile a bit pattern of width `period` across `total` bit positions."""
    out = block
    span = period
    while span < total:
        out |= out << span
        span *= 2
    return out & ((1 << total) - 1)


@dataclass(frozen=True)
class GridSpec:
    """Immutable description of a grid graph; all derived data is cached."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(a) for a in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(a < 2 for a in dims):
            raise GridError(f"every side length must be >= 2, got {dims}")
        if prod(dims) > MAX_VERTICES:
            raise GridError(
                f"grid has {prod(dims)} vertices; supported maximum is {MAX_VERTICES}"
            )

    @classmethod
    def hypercube(cls, d: int) -> "GridSpec":
        if d < 0:
            raise GridError("hypercube dimension must be >= 0")
        return cls((2,) * d)

    # -- basic shape -------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.dims)

    @cached_property
    def num_vertices(self) -> int:
        return prod(self.dims)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        out = []
        s = 1
        for a in self.dims:
            out.append(s)
            s *= a
        return tuple(out)

    @cached_property
    def is_hypercube(self) -> bool:
        return all(a == 2 for a in self.dims)

    @cached_property
    def full_vertex_mask(self) -> int:
        return (1 << self.num_vertices) - 1

    # -- vertex indexing ---------------------------------------------------

    def check_vertex(self, v: int) -> int:
        if not 0 <= v < self.num_vertices:
            raise GridError(f"vertex index {v} out of range for {self}")
        return v

    def index_of(self, coords: Iterable[int]) -> int:
        coords = tuple(coords)
        if len(coords) != self.d:
            raise GridError(f"expected {self.d} coordinates, got {len(coords)}")
        idx = 0
        for c, a, s in zip(coords, self.dims, self.strides):
            if not 1 <= c <= a:
                raise GridError(f"coordinate {c} out of range 1..{a}")
            idx += (c - 1) * s
        return idx

    def coords_of(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        out = []
        for a in self.dims:
            out.append(v % a + 1)
            v //= a
        return tuple(out)

    def coord(self, v: int, axis: int) -> int:
        """1-based coordinate of v on a 1-based axis."""
        return (v // self.strides[axis - 1]) % self.dims[axis - 1] + 1

    def vertices(self) -> range:
        return range(self.num_vertices)

    def _check_slab(self, axis: int, offset: int, length: int) -> int:
        a = self.dims[axis - 1]
        if not (offset >= 0 and length >= 1 and offset + length <= a):
            raise GridError(f"coordinates {offset + 1}..{offset + length} out of range 1..{a}")
        return a

    def slab_indices(self, axis: int, offset: int, length: int) -> list[int]:
        """Indices of the vertices whose coordinate on the 1-based `axis` is
        one of offset+1..offset+length, in increasing order.

        Entry u is the image of vertex u of the sub-grid with that axis cut
        to `length` values (a slab), or, for length 1, of the sub-grid with
        the axis removed (a slice, which has the same vertex order).
        """
        a = self._check_slab(axis, offset, length)
        return _stride_embedding(0, self.strides[axis - 1], a, offset, length, self.num_vertices)

    def slab_edge_indices(self, axis: int, offset: int, length: int) -> list[int]:
        """Global indices of the edges of the slab (or, for length 1, the
        slice) that `slab_indices` lists, in the sub-grid's own edge order:
        entry k is the image of the sub-grid's edge k."""
        self._check_slab(axis, offset, length)
        out: list[int] = []
        for q in range(1, self.d + 1):
            # a slab of `length` values has length - 1 edges on its own axis
            out += self._edge_slab(q, axis, offset, length - (q == axis))
        return out

    def _edge_slab(self, q: int, axis: int, offset: int, length: int) -> list[int]:
        """Global indices of the axis-q edges whose lower endpoint has its
        coordinate on `axis` in offset+1..offset+length, in order.  The
        axis-q edges, indexed by lower endpoint, form the grid whose side on
        axis q is one shorter; `_edge_slab(axis, axis, offset, 1)` lists the
        edges between slices offset and offset + 1 in slice vertex order."""
        sides = list(self.dims)
        sides[q - 1] -= 1
        base, total = self._axis_edge_offsets[q - 1], self._axis_edge_counts[q - 1]
        stride = prod(sides[: axis - 1])
        return _stride_embedding(base, stride, sides[axis - 1], offset, length, total)

    # -- adjacency and labels ----------------------------------------------

    def neighbors(self, v: int) -> list[int]:
        self.check_vertex(v)
        out = []
        for axis in range(1, self.d + 1):
            s = self.strides[axis - 1]
            c = self.coord(v, axis)
            if c >= 2:
                out.append(v - s)
            if c <= self.dims[axis - 1] - 1:
                out.append(v + s)
        return out

    def incident_labels(self, v: int) -> tuple[int, ...]:
        """The label set I_v: all j in [2d] for which e(v, j) is an edge."""
        self.check_vertex(v)
        out = []
        for axis in range(1, self.d + 1):
            a = self.dims[axis - 1]
            c = self.coord(v, axis)
            if c >= 2:  # edge down; its smaller coordinate is c - 1
                out.append(2 * axis - 1 if (c - 1) % 2 == 1 else 2 * axis)
            if c <= a - 1:  # edge up; its smaller coordinate is c
                out.append(2 * axis - 1 if c % 2 == 1 else 2 * axis)
        return tuple(sorted(out))

    # -- global edge enumeration (axis-major, then lower endpoint index) ----

    @cached_property
    def _axis_edge_counts(self) -> tuple[int, ...]:
        v = self.num_vertices
        return tuple((a - 1) * (v // a) for a in self.dims)

    @cached_property
    def _axis_edge_offsets(self) -> tuple[int, ...]:
        out = []
        acc = 0
        for n in self._axis_edge_counts:
            out.append(acc)
            acc += n
        return tuple(out)

    @cached_property
    def num_edges(self) -> int:
        return sum(self._axis_edge_counts)

    @cached_property
    def edge_endpoints(self) -> tuple[array, array]:
        """The lower and the upper endpoint of every edge index.  The axis-q
        edges start at the vertices whose coordinate on axis q is below a_q,
        in index order, and end one axis-q stride above them.  Arrays, as a
        list would also hold one int object per entry."""
        lower = array("q")
        upper = array("q")
        for q, (a, s) in enumerate(zip(self.dims, self.strides), start=1):
            starts = self.slab_indices(q, 0, a - 1)
            lower.extend(starts)
            upper.extend([v + s for v in starts])
        return lower, upper

    def endpoints(self, k: int) -> tuple[int, int]:
        """(lower, upper) endpoint of edge index k."""
        if not 0 <= k < self.num_edges:
            raise GridError(f"edge index {k} out of range for {self}")
        lower, upper = self.edge_endpoints
        return lower[k], upper[k]

    def edges_in_order(self) -> range:
        """Every edge index, in order."""
        return range(self.num_edges)

    @cached_property
    def _label_axes(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per label - 1: (stride, side, first edge index of the axis, the
        parity of the 0-based lower-endpoint coordinate the label needs)."""
        return tuple(
            (s, a, off, parity)
            for a, s, off in zip(self.dims, self.strides, self._axis_edge_offsets)
            for parity in (0, 1)
        )

    def label_to_edge_index(self, v: int, label: int) -> int:
        """Global index of e(v, label), or -1 when the label is absent.

        Computed from strides, with no table.  Let c be v's 0-based
        coordinate on the label's axis (side a, stride s).  Of the edges at
        v on that axis, e(v, label) is the one whose lower endpoint has the
        0-based coordinate `low` in {c - 1, c} of the label's parity (even
        for odd labels), and it exists when 0 <= low <= a - 2.  The axis's
        edges are numbered like the grid with side a - 1 on that axis, so a
        lower endpoint u is edge u - (u // (s * a)) * s past the axis's
        first edge index.
        """
        s, a, off, parity = self._label_axes[label - 1]
        c = v // s % a
        low = c - ((c ^ parity) & 1)
        if not 0 <= low <= a - 2:
            return -1
        return off + v - (c - low) * s - v // (s * a) * s

    # -- bitset plumbing for the infection kernel ---------------------------

    def coord_ge_mask(self, axis: int, c: int) -> int:
        """Bitset of vertices whose coordinate on axis is >= c."""
        a = self.dims[axis - 1]
        s = self.strides[axis - 1]
        if c <= 1:
            return self.full_vertex_mask
        if c > a:
            return 0
        block = ((1 << ((a - c + 1) * s)) - 1) << ((c - 1) * s)
        return _tile_mask(block, a * s, self.num_vertices)

    def coord_le_mask(self, axis: int, c: int) -> int:
        return self.full_vertex_mask & ~self.coord_ge_mask(axis, c + 1)

    @cached_property
    def shift_plan(self) -> tuple[tuple[int, int], ...]:
        """(stride, receiver-mask) per incident direction; shifting the
        infected bitset by +stride and masking yields, at each receiver, the
        state of its lower neighbor on that axis (and symmetrically)."""
        plan = []
        for axis in range(1, self.d + 1):
            s = self.strides[axis - 1]
            a = self.dims[axis - 1]
            plan.append((s, self.coord_ge_mask(axis, 2)))  # receive from below
            plan.append((-s, self.coord_le_mask(axis, a - 1)))  # receive from above
        return tuple(plan)

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        return "x".join(str(a) for a in self.dims)


def parse_grid(text: str) -> GridSpec:
    """Parse "a1xa2x...xad" or the "Qd" hypercube shorthand."""
    if not isinstance(text, str):
        raise GridError("grid specification must be a string")
    text = text.strip()
    if not text:
        raise GridError("empty grid specification")
    if text[0] in "Qq":
        try:
            d = int(text[1:])
        except ValueError:
            raise GridError(f"bad hypercube shorthand {text!r}") from None
        if d < 1:
            raise GridError("hypercube shorthand needs Qd with d >= 1")
        return GridSpec.hypercube(d)
    parts = text.lower().split("x")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise GridError(f"bad grid specification {text!r}") from None
    if not dims:
        raise GridError("empty grid specification")
    return GridSpec(dims)


def _json_field(doc: dict, key: str):
    """doc[key], or a ValueError naming the missing field."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None


def _json_int(value, what: str) -> int:
    """An integer written as a JSON number or a decimal string."""
    if type(value) is int:  # not bool
        return value
    if not isinstance(value, str):
        raise ValueError(f"{what} must be an integer")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


@dataclass(frozen=True)
class VertexSet:
    """Dense vertex bitset bound to its grid."""

    spec: GridSpec
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.spec.full_vertex_mask:
            raise GridError("vertex mask out of range for grid")

    @classmethod
    def empty(cls, spec: GridSpec) -> "VertexSet":
        return cls(spec, 0)

    @classmethod
    def full(cls, spec: GridSpec) -> "VertexSet":
        return cls(spec, spec.full_vertex_mask)

    @classmethod
    def from_indices(cls, spec: GridSpec, indices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in indices:
            spec.check_vertex(v)
            mask |= 1 << v
        return cls(spec, mask)

    @classmethod
    def from_coords(cls, spec: GridSpec, coords: Iterable[Iterable[int]]) -> "VertexSet":
        return cls.from_indices(spec, (spec.index_of(c) for c in coords))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return bool((self.mask >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        # one pass over the binary digits, reversed so position v is bit v;
        # clearing bits of the int instead would copy it once per member
        bits = bin(self.mask)[:1:-1]
        v = bits.find("1")
        while v >= 0:
            yield v
            v = bits.find("1", v + 1)

    def indices(self) -> list[int]:
        return list(self)

    def _check_same(self, other: "VertexSet") -> None:
        if self.spec != other.spec:
            raise GridError("vertex sets belong to different grids")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.spec, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.spec, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.spec, self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        self._check_same(other)
        return self.mask & ~other.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == self.spec.full_vertex_mask

"""Constructions of small percolating sets in hypercubes.

Every constructor simulates its output before returning and raises if the
set fails to percolate, so a witness object is always a checked artifact.
The threshold-3 family is exactly minimum-size: ceil(d(d+3)/6) + 1 vertices
for every d >= 3, matching the rank lower bound, via explicit tables for
d <= 8, a three-coordinate recursive step for odd d, and a six-coordinate
step over the d = 6 table for even d.

The recursive step partitions the first r coordinates by weight: blocks
percolating at lower thresholds are planted on the odd-weight prefixes
(threshold r on the first weight-1 prefix, r-1 on the other weight-1
prefixes, r-2j on weight 2j+1), and infection sweeps upward level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bootstrap import percolates
from .counts import DomainError
from .grid import GridSpec, VertexSet, _json_field, _json_int, _json_list, parse_grid


class PercolationConstructionError(RuntimeError):
    """A construction failed its simulation check; always a bug."""


@dataclass(frozen=True)
class PercolatingWitness:
    spec: GridSpec
    r: int
    vertices: VertexSet
    provenance: str

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_json_doc(self) -> dict:
        return {
            "kind": "percolating-witness",
            "spec": str(self.spec),
            "r": self.r,
            "size": self.size,
            "vertices": self.vertices.indices(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_doc(cls, doc: dict) -> "PercolatingWitness":
        if not isinstance(doc, dict) or doc.get("kind") != "percolating-witness":
            raise ValueError("not a percolating witness document")
        spec = parse_grid(_json_field(doc, "spec"))
        r = _json_int(_json_field(doc, "r"), "r")
        if r < 1:
            raise ValueError(f"threshold r must be >= 1, got {r}")
        vertices = _json_list(_json_field(doc, "vertices"), "vertices")
        provenance = _json_field(doc, "provenance")
        if not isinstance(provenance, str):
            raise ValueError("provenance must be a string")
        return cls(
            spec,
            r,
            VertexSet.from_indices(spec, [_json_int(v, "vertex") for v in vertices]),
            provenance,
        )


def r3_target_size(d: int) -> int:
    """ceil(d(d+3)/6) + 1, the exact threshold-3 minimum for d >= 3."""
    return -(-(d * (d + 3)) // 6) + 1


def _checked(spec: GridSpec, r: int, indices, provenance: str) -> PercolatingWitness:
    vset = VertexSet.from_indices(spec, indices)
    if not percolates(spec, vset, r):
        raise PercolationConstructionError(
            f"{provenance} set of size {len(vset)} fails to percolate on {spec} at r={r}"
        )
    return PercolatingWitness(spec, r, vset, provenance)


# -- explicit threshold-3 tables for d = 3..8 --------------------------------
#
# Each name is the subset of coordinate axes set to the high value, written
# as a digit string; each table refines the previous one by a swap.

_R3_DELTAS: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {
    3: ((), ("1", "2", "3", "123")),
    4: (("3",), ("134", "4", "234")),
    5: (("134",), ("135", "245", "12345")),
    6: (("135", "245"), ("346", "12356", "456", "23456")),
    7: (("346",), ("13457", "24567", "12367", "1234567")),
    8: (("13457", "24567"), ("34568", "1234578", "34678", "25678", "2345678")),
}


def _r3_table_names(d: int) -> list[str]:
    names: list[str] = []
    for dd in range(3, d + 1):
        removed, added = _R3_DELTAS[dd]
        for name in removed:
            names.remove(name)
        names.extend(added)
    return names


def _name_to_index(name: str, d: int) -> int:
    idx = 0
    for ch in name:
        axis = int(ch)
        if not 1 <= axis <= d:
            raise ValueError(f"axis {axis} out of range in {name!r}")
        idx |= 1 << (axis - 1)
    return idx


def explicit_r3_set(d: int) -> PercolatingWitness:
    """The tabulated threshold-3 percolating set for 3 <= d <= 8."""
    if not 3 <= d <= 8:
        raise DomainError(f"explicit tables cover 3 <= d <= 8, got {d}")
    spec = GridSpec.hypercube(d)
    names = _r3_table_names(d)
    witness = _checked(spec, 3, (_name_to_index(n, d) for n in names), "explicit-table")
    if witness.size != r3_target_size(d):
        raise PercolationConstructionError(f"table for d={d} has wrong size {witness.size}")
    return witness


def base_set(d: int, t: int) -> PercolatingWitness:
    """Base percolating sets: a single seed (t=1), the paired-coordinates
    set of size ceil(d/2)+1 (t=2), all even-weight vertices (t=d), or every
    vertex (t > d, where no spread is possible)."""
    if t < 1:
        raise DomainError("threshold must be >= 1")
    if d < 0:
        raise DomainError("dimension must be >= 0")
    spec = GridSpec.hypercube(d)
    if t == 1:
        return _checked(spec, 1, [0], "base-r1")
    if t > d:
        return _checked(spec, t, spec.vertices(), "base-all")
    if t == d:
        evens = [v for v in spec.vertices() if bin(v).count("1") % 2 == 0]
        return _checked(spec, t, evens, "base-diag")
    if t == 2:
        picks = [0]
        for i in range(1, d, 2):
            picks.append((1 << (i - 1)) | (1 << i))
        if d % 2 == 1:
            picks.append((1 << (d - 2)) | (1 << (d - 1)))
        witness = _checked(spec, 2, picks, "base-r2")
        if witness.size != -(-d // 2) + 1:
            raise PercolationConstructionError(f"pairing set for d={d} has wrong size")
        return witness
    raise DomainError(f"no base construction for threshold {t} in dimension {d}")


def _block(d: int, t: int) -> PercolatingWitness:
    """Best available percolating block for Q_d at threshold t."""
    if t == 1 or t == 2 or t >= d:
        return base_set(d, t)
    if t == 3:
        return build_r3(d)
    return build_recursive(d, t)


def build_recursive(d: int, r: int) -> PercolatingWitness:
    """Plant lower-threshold blocks on the odd-weight prefixes of the first
    r coordinates; size is the achieved-block identity
    |B_r| + (r-1)|B_{r-1}| + sum_j C(r, 2j+1) |B_{r-2j}|."""
    if not d >= r >= 1:
        raise DomainError(f"need d >= r >= 1, got d={d}, r={r}")
    spec = GridSpec.hypercube(d)
    blocks: dict[int, PercolatingWitness] = {r: _block(d - r, r), r - 1: _block(d - r, r - 1)}
    for j in range(1, -(-r // 2)):
        blocks[r - 2 * j] = _block(d - r, r - 2 * j)

    indices: list[int] = []
    first = 1  # the prefix with only the first coordinate high
    for prefix in range(1 << r):
        weight = bin(prefix).count("1")
        if weight == 1:
            block = blocks[r] if prefix == first else blocks[r - 1]
        elif weight % 2 == 1 and weight >= 3:
            block = blocks[r - (weight - 1)]
        else:
            continue
        for b in block.vertices:
            indices.append(prefix | (b << r))

    expected = (
        blocks[r].size
        + (r - 1) * blocks[r - 1].size
        + sum(comb(r, 2 * j + 1) * blocks[r - 2 * j].size for j in range(1, -(-r // 2)))
    )
    if len(indices) != expected:
        raise PercolationConstructionError("block placement lost vertices")
    return _checked(spec, r, indices, "level-recursion")


def build_r3(d: int) -> PercolatingWitness:
    """Minimum threshold-3 percolating set, size ceil(d(d+3)/6) + 1."""
    if d < 3:
        raise DomainError(f"need d >= 3, got {d}")
    if d <= 8:
        return explicit_r3_set(d)
    if d % 2 == 1:
        witness = build_recursive(d, 3)
    else:
        spec = GridSpec.hypercube(d)
        b3 = build_r3(d - 6)
        b2 = base_set(d - 6, 2)
        b1 = base_set(d - 6, 1)
        special = _name_to_index("346", 6)
        indices: list[int] = []
        for name in _r3_table_names(6):
            prefix = _name_to_index(name, 6)
            if prefix == special:
                block = b3
            elif "5" in name:
                block = b2
            elif "5" not in name and "6" not in name:
                block = b1
            else:
                raise AssertionError(f"prefix {name} not covered by the even-step cases")
            for b in block.vertices:
                indices.append(prefix | (b << 6))
        witness = _checked(spec, 3, indices, "even-d-step")
    if witness.size != r3_target_size(d):
        raise PercolationConstructionError(
            f"threshold-3 set for d={d} has size {witness.size}, expected {r3_target_size(d)}"
        )
    return witness

"""Exact minimum percolating set search at desk scale.

Layered decision procedure: starting from the certified rational lower
bound, decide for each k whether any k-subset percolates, and stop at the
first yes.  A layer is decided over canonical orbit representatives only
(grid automorphisms: axis permutations among equal lengths times per-axis
reversals; percolation is invariant under all of them), so exhausting a
layer yields an auditable optimality certificate: group order plus the
number of canonical k-sets visited, none of which percolate.

Representatives are grown breadth-first: canonical (k-1)-sets are extended
by every vertex outside their closure (a vertex inside the closure of the
rest can be dropped for free, which would contradict the already-proven
bound m > k-1), the extensions are deduplicated, tested in bulk, and
canonicalized.  Every percolating k-set has an ordering whose prefixes all
pass the closure filter, so coverage is complete.  All bulk work runs on
numpy uint64 bitmask arrays; canonical forms are computed with per-group
byte-gather tables, which keeps the whole layer loop vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .bootstrap import _bitsliced_round, closure_mask
from .counts import DomainError, m_lower_grid
from .grid import GridSpec, VertexSet
from .witnesses import PercolatingWitness

_GROUP_LIMIT = 50_000
_EXACT_VERTEX_LIMIT = 64


class SearchBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    spec: GridSpec
    r: int
    size_budget: int | None = None
    node_budget: int | None = None
    symmetry: bool = True
    seed_lower: int | None = None
    seed_upper: int | None = None


@dataclass(frozen=True)
class ExhaustionRecord:
    """Audit record: a complete canonical sweep of size-k sets found none
    that percolate, proving the minimum exceeds k."""

    k: int
    group_order: int
    canonical_sets: int


@dataclass(frozen=True)
class SearchResult:
    spec: GridSpec
    r: int
    exact_m: int | None
    status: str  # "exact" | "budget"
    witness: PercolatingWitness | None
    nodes_explored: int
    proof_of_optimality: bool
    exhaustion: ExhaustionRecord | None
    seed_lower: int
    seed_basis: str

    def to_json_doc(self) -> dict:
        return {
            "kind": "search-result",
            "spec": str(self.spec),
            "r": self.r,
            "exact_m": self.exact_m,
            "status": self.status,
            "witness": self.witness.to_json_doc() if self.witness else None,
            "nodes_explored": self.nodes_explored,
            "proof_of_optimality": self.proof_of_optimality,
            "exhaustion": (
                {
                    "k": self.exhaustion.k,
                    "group_order": self.exhaustion.group_order,
                    "canonical_sets": self.exhaustion.canonical_sets,
                }
                if self.exhaustion
                else None
            ),
            "seed_lower": self.seed_lower,
            "seed_basis": self.seed_basis,
        }


# ---------------------------------------------------------------------------
# the automorphism group


def grid_automorphisms(spec: GridSpec) -> list[list[int]]:
    """All vertex permutations generated by reversing axes and permuting
    axes of equal length, as index arrays."""
    d = spec.d
    dims = spec.dims
    perms_out: list[list[int]] = []
    axis_perms = [
        sigma
        for sigma in permutations(range(d))
        if all(dims[sigma[i]] == dims[i] for i in range(d))
    ]
    total = len(axis_perms) << d
    if total > _GROUP_LIMIT:
        raise DomainError(
            f"automorphism group of {spec} has order {total}, above the supported {_GROUP_LIMIT}"
        )
    coords_cache = [spec.coords_of(v) for v in spec.vertices()]
    for sigma in axis_perms:
        for flips in range(1 << d):
            table = []
            for v in spec.vertices():
                c = coords_cache[v]
                out = [0] * d
                for i in range(d):
                    x = c[sigma[i]]
                    if (flips >> i) & 1:
                        x = dims[i] + 1 - x
                    out[i] = x
                table.append(spec.index_of(out))
            perms_out.append(table)
    return perms_out


def canonical_form(spec: GridSpec, vset: VertexSet) -> VertexSet:
    """Lexicographically smallest image (by sorted index tuple) of the set
    under the full automorphism group; idempotent."""
    if vset.spec != spec:
        raise ValueError("set belongs to a different grid")
    best: tuple[int, ...] | None = None
    indices = vset.indices()
    for perm in grid_automorphisms(spec):
        image = tuple(sorted(perm[v] for v in indices))
        if best is None or image < best:
            best = image
    return VertexSet.from_indices(spec, best or ())


def count_canonical_subsets(spec: GridSpec, k: int) -> int:
    """Number of orbits of k-subsets, by direct canonicalization (tiny
    grids only; used for audits and tests)."""
    seen = set()
    for combo in combinations(spec.vertices(), k):
        seen.add(tuple(canonical_form(spec, VertexSet.from_indices(spec, combo)).indices()))
    return len(seen)


# ---------------------------------------------------------------------------
# vectorized kernels


class _MaskKernel:
    """Bulk infection closure over uint64 bitmask arrays."""

    def __init__(self, spec: GridSpec, r: int):
        if spec.num_vertices > _EXACT_VERTEX_LIMIT:
            raise DomainError(
                f"bulk search kernel supports up to {_EXACT_VERTEX_LIMIT} vertices"
            )
        self.r = r
        self.full = np.uint64(spec.full_vertex_mask)
        self.plan = [(s, np.uint64(mask)) for s, mask in spec.shift_plan]

    def closure(self, masks: np.ndarray) -> np.ndarray:
        cur = masks
        while True:
            new = _bitsliced_round(cur, self.plan, self.r, self.full)
            if np.array_equal(new, cur):
                return new
            cur = new


class _CanonicalTables:
    """Byte-gather tables computing, for every group element at once, the
    image of a bitmask; canonical form = image with the lex-least sorted
    index tuple, realized as the max over bit-reversed masks."""

    def __init__(self, spec: GridSpec):
        n = spec.num_vertices
        self.n = n
        self.nbytes = (n + 7) // 8
        rev = [n - 1 - v for v in range(n)]
        perms = grid_automorphisms(spec)
        self.group_order = len(perms)
        conj = [[rev[p[rev[pos]]] for pos in range(n)] for p in perms]
        self.tables = self._build(conj)
        self.rev_tables = self._build([rev])

    def _build(self, perms: list[list[int]]) -> np.ndarray:
        g = len(perms)
        tables = np.zeros((g, self.nbytes, 256), dtype=np.uint64)
        dest = np.array(perms, dtype=np.uint64)
        one = np.uint64(1)
        byte_vals = np.arange(256, dtype=np.uint64)
        for bp in range(self.nbytes):
            for bit in range(8):
                v = bp * 8 + bit
                if v >= self.n:
                    break
                with_bit = np.nonzero((byte_vals >> np.uint64(bit)) & one)[0]
                tables[:, bp, with_bit] |= (one << dest[:, v])[:, None]
        return tables

    def _apply(self, tables_row: np.ndarray, masks: np.ndarray) -> np.ndarray:
        acc = tables_row[0][((masks) & np.uint64(0xFF)).astype(np.intp)]
        for bp in range(1, self.nbytes):
            chunk = ((masks >> np.uint64(8 * bp)) & np.uint64(0xFF)).astype(np.intp)
            acc = acc | tables_row[bp][chunk]
        return acc

    def canonicalize(self, masks: np.ndarray, chunk: int = 1 << 18) -> np.ndarray:
        out = np.empty_like(masks)
        for lo in range(0, len(masks), chunk):
            part = masks[lo : lo + chunk]
            work = self._apply(self.rev_tables[0], part)
            best = np.zeros_like(work)
            for g in range(self.group_order):
                np.maximum(best, self._apply(self.tables[g], work), out=best)
            out[lo : lo + chunk] = self._apply(self.rev_tables[0], best)
        return out


# ---------------------------------------------------------------------------
# layered canonical search


@dataclass
class _LayerState:
    levels: dict[int, np.ndarray] = field(default_factory=dict)
    early_witness: int | None = None  # percolating mask found below the layer
    early_size: int | None = None
    nodes: int = 0
    canonical_counts: dict[int, int] = field(default_factory=dict)


class _CanonicalSearch:
    def __init__(self, spec: GridSpec, r: int, node_budget: int | None):
        self.spec = spec
        self.r = r
        self.kernel = _MaskKernel(spec, r)
        self.tables = _CanonicalTables(spec)
        self.node_budget = node_budget
        self.state = _LayerState()
        self.state.levels[0] = np.zeros(1, dtype=np.uint64)

    def _charge(self, n: int) -> None:
        self.state.nodes += n
        if self.node_budget is not None and self.state.nodes > self.node_budget:
            raise SearchBudgetExceeded(f"node budget exceeded at {self.state.nodes}")

    def _extensions(self, parents: np.ndarray) -> np.ndarray:
        closures = self.kernel.closure(parents)
        one = np.uint64(1)
        outs = []
        for v in range(self.spec.num_vertices):
            bit = one << np.uint64(v)
            sel = (closures & bit) == 0
            if sel.any():
                outs.append(parents[sel] | bit)
        if not outs:
            return np.empty(0, dtype=np.uint64)
        return np.unique(np.concatenate(outs))

    def _ensure_level(self, k: int) -> None:
        """Materialize canonical levels up to k, watching for percolating
        sets below the decision layer (possible only with an unsound seed;
        handled by short-circuiting)."""
        for j in range(1, k + 1):
            if j in self.state.levels or self.state.early_witness is not None:
                continue
            raw = self._extensions(self.state.levels[j - 1])
            self._charge(len(raw))
            perc = self.kernel.closure(raw) == self.kernel.full
            if perc.any():
                self.state.early_witness = int(raw[np.argmax(perc)])
                self.state.early_size = j
                return
            canon = np.unique(self.tables.canonicalize(raw))
            self.state.levels[j] = canon
            self.state.canonical_counts[j] = len(canon)

    def decide_layer(self, k: int) -> tuple[bool, int | None, int | None]:
        """Does any k-subset percolate?  Returns (found, witness mask,
        canonical count when the layer was exhausted)."""
        self._ensure_level(k - 1)
        st = self.state
        if st.early_witness is not None:
            pad = st.early_witness
            free = [v for v in self.spec.vertices() if not (pad >> v) & 1]
            for v in free[: k - st.early_size]:
                pad |= 1 << v
            return True, pad, None
        raw = self._extensions(st.levels[k - 1])
        self._charge(len(raw))
        if len(raw) == 0:
            return False, None, 0
        perc = self.kernel.closure(raw) == self.kernel.full
        if perc.any():
            return True, int(raw[np.argmax(perc)]), None
        canon = np.unique(self.tables.canonicalize(raw))
        st.levels[k] = canon
        st.canonical_counts[k] = len(canon)
        return False, None, len(canon)


def _naive_layer(spec: GridSpec, r: int, k: int) -> tuple[bool, int | None, int]:
    """Reference decision without symmetry: every k-subset."""
    full = spec.full_vertex_mask
    tried = 0
    for combo in combinations(spec.vertices(), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        tried += 1
        if closure_mask(spec, mask, r) == full:
            return True, mask, tried
    return False, None, tried


def exhaust_layer(
    spec: GridSpec, r: int, k: int, node_budget: int | None = None, symmetry: bool = True
) -> tuple[bool, PercolatingWitness | None, ExhaustionRecord | None]:
    """Complete decision of one layer: does some k-set percolate?"""
    if symmetry:
        search = _CanonicalSearch(spec, r, node_budget)
        found, mask, canonical = search.decide_layer(k)
        order = search.tables.group_order
    else:
        found, mask, canonical = _naive_layer(spec, r, k)
        order = 1
    if found:
        witness = PercolatingWitness(spec, r, VertexSet(spec, mask), "search")
        if closure_mask(spec, mask, r) != spec.full_vertex_mask:
            raise AssertionError("search produced a non-percolating witness")
        return True, witness, None
    return False, None, ExhaustionRecord(k, order, canonical)


def exact_min(config: SearchConfig) -> SearchResult:
    """Minimum percolating set size, seeded at the certified lower bound and
    decided layer by layer over canonical representatives."""
    spec, r = config.spec, config.r
    if r < 1:
        raise DomainError("search requires threshold r >= 1")
    n = spec.num_vertices

    if r > 2 * spec.d:
        # no vertex has r neighbors, so nothing ever spreads
        witness = PercolatingWitness(spec, r, VertexSet.full(spec), "search")
        return SearchResult(
            spec, r, n, "exact", witness, 0, True, None, n, "degree-bound"
        )

    formula_seed = max(1, m_lower_grid(spec.dims, r).ceil_value)
    seed = formula_seed
    basis = "rank-certificate"
    if config.seed_lower is not None and config.seed_lower < formula_seed:
        seed = max(1, config.seed_lower)
        basis = "caller"

    size_cap = min(config.size_budget or n, config.seed_upper or n, n)
    if not config.symmetry:
        nodes = 0
        last_naive: ExhaustionRecord | None = None
        for k in range(seed, size_cap + 1):
            found, mask, tried = _naive_layer(spec, r, k)
            nodes += tried
            if config.node_budget is not None and nodes > config.node_budget:
                return SearchResult(
                    spec, r, None, "budget", None, nodes, False, last_naive, seed, basis
                )
            if found:
                witness = PercolatingWitness(spec, r, VertexSet(spec, mask), "search")
                return SearchResult(
                    spec, r, k, "exact", witness, nodes,
                    last_naive is not None, last_naive, seed, basis,
                )
            last_naive = ExhaustionRecord(k, 1, tried)
        return SearchResult(spec, r, None, "budget", None, nodes, False, last_naive, seed, basis)

    search = _CanonicalSearch(spec, r, config.node_budget)
    last_exhausted: ExhaustionRecord | None = None
    try:
        for k in range(seed, size_cap + 1):
            found, mask, canonical = search.decide_layer(k)
            if found:
                witness = PercolatingWitness(spec, r, VertexSet(spec, int(mask)), "search")
                if closure_mask(spec, int(mask), r) != spec.full_vertex_mask:
                    raise AssertionError("search produced a non-percolating witness")
                return SearchResult(
                    spec, r, k, "exact", witness, search.state.nodes,
                    last_exhausted is not None, last_exhausted, seed, basis,
                )
            last_exhausted = ExhaustionRecord(k, search.tables.group_order, canonical)
    except SearchBudgetExceeded:
        return SearchResult(
            spec, r, None, "budget", None, search.state.nodes, False,
            last_exhausted, seed, basis,
        )
    return SearchResult(
        spec, r, None, "budget", None, search.state.nodes, False, last_exhausted, seed, basis
    )

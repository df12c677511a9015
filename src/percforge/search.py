"""Exact minimum percolating set search at desk scale.

Layered decision procedure: starting from the certified rational lower
bound, decide for each k whether any k-subset percolates, and stop at the
first yes.  A layer is decided over canonical orbit representatives only
(grid automorphisms: axis permutations among equal lengths times per-axis
reversals; percolation is invariant under all of them), so exhausting a
layer yields an auditable optimality certificate: group order plus the
number of canonical k-sets visited, none of which percolate.

A set is canonical when its sorted index tuple is lexicographically least
in its orbit.  Representatives are grown by orderly generation (Read,
"Every one a winner", 1978; McKay's canonical augmentation, 1998, is the
general form): a canonical (k-1)-set P gets the children P + v for every
vertex v above max P, and a child is kept exactly when it is its own
canonical form.  This visits every canonical k-set exactly once:

* Every canonical k-set S has a canonical prefix T = S - max S.  Suppose
  some g made g(T) < T, first differing at position i.  g(S) is g(T) plus
  one element, so for j < k its j-th smallest element is at most that of
  g(T): at most S_j for j < i, and below T_i = S_i at j = i.  Then
  g(S) < S, against S being canonical.  Hence S is the child of T by
  max S.
* A child has one parent, its set minus its maximum, so no child is
  generated twice and no global deduplication is needed; levels come out
  sorted by mask.

No closure filter (extend P only by vertices outside its closure) is used.
It would be sound for the decision, since minimal percolating sets are
closure-independent and so are all their subsets, but it would drop
orbits from the sweep.  Without it every orbit of k-subsets is visited,
so an exhaustion record's canonical count is the Burnside count of
k-subset orbits and can be checked against it.

All bulk work runs on numpy uint64 bitmask arrays, which keeps the whole
layer loop vectorized.  Closure runs each round only on the masks the
previous round changed.  A round's output depends on its input mask alone,
so a mask that one round leaves unchanged is at its fixpoint; dropping it
changes no closure, and most masks settle in a few of a layer's rounds.
The children of a level are closed `_CLOSURE_CHUNK` at a time in level
order, and the first chunk that holds a percolating child ends the layer
with that chunk's first hit.  Every earlier child was closed and does not
percolate, so this is the first percolating child of the whole level, the
one a single closure of all children would give.  `nodes_explored` counts
the children generated, all of them before any is closed, not those
closed, so it is the same too.

A canonical form is computed without trying every group element.  Let
m*(S) be the least orbit minimum among the members of S.  The lex-least
image of S starts with m*, so the element g producing it maps some member
v in the orbit of m* to m*.  Then g = s c_v, where c_v is one fixed
element taking v to its orbit minimum and s fixes m*.  Only the pairs
(v, s) are tried, with byte-gather tables for the n elements c_v and for
the stabilizers of the orbit minima (see `_CanonicalTables`).  On Q5 a
k-set is thus tried under k x 120 elements instead of 3,840.

numpy is imported lazily: the module object exists at import, and numpy
executes on the first attribute access, which only the search kernels
make.  Importing numpy is most of a cold CLI start (0.12 s of the 0.18 s
that `import percforge.cli` took with numpy 2.4 on 2 vCPUs), and only the
search uses it, so every other command starts without it.  This module itself is still imported
eagerly by the package: names like `percforge.exact_min` stay plain
attributes, and tools that instrument imported modules see it.  Nothing
here may touch numpy at import time, in a default argument or a module
constant.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from itertools import combinations, permutations

from .bootstrap import _bitsliced_round, closure_mask
from .counts import DomainError, m_lower_grid
from .grid import GridSpec, VertexSet
from .witnesses import PercolatingWitness

_GROUP_LIMIT = 50_000
# (mask, member) pairs canonicalized at a time
_PAIR_CHUNK = 1 << 18
# children closed at a time, in level order, until one percolates
_CLOSURE_CHUNK = 1 << 14
_EXACT_VERTEX_LIMIT = 64


def _lazy_import(name: str):
    """The module `name`, executed on its first attribute access (the
    `importlib.util.LazyLoader` recipe).  A module already imported is
    returned as it is, never executed twice."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")


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


def _automorphism_array(spec: GridSpec) -> np.ndarray:
    """The group as a (group order, n) int64 array: row g maps vertex v to
    g[v].  Rows run over the axis permutations that respect side lengths,
    in `itertools.permutations` order, and within each over the reversal
    bitmasks 0..2^d-1 (bit i reverses axis i of the image)."""
    d, dims = spec.d, spec.dims
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
    sides = np.array(dims, dtype=np.int64)
    strides = np.array(spec.strides, dtype=np.int64)
    coords = (np.arange(spec.num_vertices, dtype=np.int64)[:, None] // strides) % sides
    flips = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(bool)
    out = []
    for sigma in axis_perms:
        image = coords[:, list(sigma)]  # (n, d): coordinate i of the image
        image = np.where(flips[:, None, :], sides - 1 - image, image)
        out.append(image @ strides)
    return np.concatenate(out)


def grid_automorphisms(spec: GridSpec) -> list[list[int]]:
    """All vertex permutations generated by reversing axes and permuting
    axes of equal length, as index arrays."""
    return _automorphism_array(spec).tolist()


def canonical_form(spec: GridSpec, vset: VertexSet) -> VertexSet:
    """Lexicographically smallest image (by sorted index tuple) of the set
    under the full automorphism group; idempotent."""
    if vset.spec != spec:
        raise ValueError("set belongs to a different grid")
    return VertexSet.from_indices(spec, _least_image(grid_automorphisms(spec), vset.indices()))


def _least_image(group: list[list[int]], indices: list[int]) -> tuple[int, ...]:
    """The lexicographically least sorted image of `indices` under `group`,
    one permutation at a time."""
    best: tuple[int, ...] | None = None
    for perm in group:
        image = tuple(sorted(perm[v] for v in indices))
        if best is None or image < best:
            best = image
    return best or ()


def count_canonical_subsets(spec: GridSpec, k: int) -> int:
    """Number of orbits of k-subsets, by direct canonicalization (tiny
    grids only; used for audits and tests)."""
    group = grid_automorphisms(spec)
    return len({_least_image(group, list(combo)) for combo in combinations(spec.vertices(), k)})


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
        """The infection closure of every mask, as a new array.  A round
        runs only on the masks that the previous round changed: the round
        is a function of the mask alone, so a mask it leaves unchanged is
        at its fixpoint and would stay unchanged in every later round."""
        out = _bitsliced_round(masks, self.plan, self.r, self.full)
        active = np.flatnonzero(out != masks)
        while len(active):
            cur = out[active]
            new = _bitsliced_round(cur, self.plan, self.r, self.full)
            changed = new != cur
            active = active[changed]
            out[active] = new[changed]
        return out


class _CanonicalTables:
    """Canonical forms of bitmasks by byte-gather tables, trying only the
    group elements that can produce the lex-least image.

    The canonical form is the image with the lex-least sorted index tuple,
    realized as the max over bit-reversed images (of two equal-size sets,
    the lex-lesser holds the least element of their difference, which is
    the higher bit after reversal).  Let o(v) be the least vertex of v's
    orbit and m*(S) the least o(v) over the members v of S.

    * Every image g(S) has its least element >= m*(S), and some image
      reaches it, so the lex-least image starts with m*.
    * An element g producing it maps some member v with o(v) = m* to m*.
      Fix one c_v with c_v(v) = o(v) for every vertex v; then
      s = g c_v^-1 fixes m*, so g = s c_v with s in the stabilizer of m*.

    So the canonical form is the best image s(c_v(S)) over the pairs (v, s)
    with v in S, o(v) = m*, and s in Stab(m*).  Tables are kept for the n
    coset representatives c_v and for the stabilizers of the orbit minima
    only, so their size follows the stabilizer, not the whole group."""

    def __init__(self, spec: GridSpec):
        n = spec.num_vertices
        self.n = n
        self.nbytes = (n + 7) // 8
        perms = _automorphism_array(spec)
        self.group_order = len(perms)
        rev = np.arange(n - 1, -1, -1)
        least = perms.min(axis=0)  # o(v)
        # least_table[bp, b]: the least o(v) over the bits v of byte b at
        # byte position bp, or n when b is 0 (so n stands for the empty set)
        padded = np.full(8 * self.nbytes, n)
        padded[:n] = least
        bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        self.least_table = np.where(bits, padded.reshape(-1, 1, 8), n).min(axis=2).astype(np.uint8)
        # bits set in byte b, one row per byte position of a uint64
        self.popcount = np.tile(bits.sum(axis=1).astype(np.uint8), (8, 1))
        self.rev_table = self._build(rev[None, :])[0]
        # c_v followed by bit reversal (a mask in, a bit-reversed image out);
        # c_v's table for byte position bp is coset_table[bp, 256 v : 256 (v + 1)]
        reps = perms[np.argmax(perms == least, axis=0)]
        self.coset_table = self._columns(self._build(rev[reps]))
        # classes: the orbit minima, most non-identity stabilizer elements first
        moved = perms[(perms != np.arange(n)).any(axis=1)]
        stabs = {m: moved[moved[:, m] == m] for m in set(least.tolist())}
        minima = sorted(stabs, key=lambda m: (-len(stabs[m]), m))
        # indexed by an orbit minimum, or by n for the empty set
        self.orbit_masks = np.zeros(n + 1, dtype=np.uint64)
        np.bitwise_or.at(self.orbit_masks, least, np.uint64(1) << np.arange(n, dtype=np.uint64))
        self.rank = np.full(n + 1, len(minima) - 1, dtype=np.int16)  # the class's rank
        self.rank[minima] = np.arange(len(minima))
        # step t applies the t-th stabilizer element of every class that has
        # more than t; those are the first class_cut[t] classes, so with
        # pairs sorted by class each step acts on a prefix of them
        steps = len(stabs[minima[0]])
        self.class_cut = [sum(len(stabs[m]) > t for m in minima) for t in range(steps)]
        self.sort_classes = any(cut < len(minima) for cut in self.class_cut)
        # acting on bit-reversed masks; rows past a class's stabilizer stay 0
        stab_table = np.zeros((len(minima), steps, self.nbytes, 256), dtype=np.uint64)
        for c, m in enumerate(minima):
            stab_table[c, : len(stabs[m])] = self._build(rev[stabs[m][:, rev]])
        self.stab_tables = [self._columns(t) for t in stab_table.transpose(1, 0, 2, 3)]

    def _build(self, perms: np.ndarray) -> np.ndarray:
        """tables[g, bp, b] = image under perms[g] of byte value b placed at
        byte position bp, built bit by bit: the entries b in [2^i, 2^(i+1))
        are the entries b - 2^i with the image of bit i added."""
        g = len(perms)
        dest = np.zeros((g, self.nbytes * 8), dtype=np.uint64)
        dest[:, : self.n] = np.uint64(1) << perms.astype(np.uint64)
        single = dest.reshape(g, self.nbytes, 8)
        tables = np.zeros((g, self.nbytes, 256), dtype=np.uint64)
        for bit in range(8):
            lo = 1 << bit
            # in place: a temporary would be half the table
            out = tables[:, :, lo : 2 * lo]
            np.bitwise_or(tables[:, :, :lo], single[:, :, bit : bit + 1], out=out)
        return tables

    @staticmethod
    def _columns(tables: np.ndarray) -> np.ndarray:
        """(k, nbytes, 256) tables side by side as (nbytes, 256 k): entry
        256 i + b of row bp is tables[i, bp, b]."""
        k, nbytes, _ = tables.shape
        return np.ascontiguousarray(tables.transpose(1, 0, 2)).reshape(nbytes, 256 * k)

    def _bytes(self, masks: np.ndarray, offset: np.ndarray | None = None) -> list[np.ndarray]:
        """Byte bp of every mask, for each byte position bp, plus `offset`
        (256 times the table each mask is looked up in) when given."""
        cols = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
        if offset is None:
            return [cols[:, bp] for bp in range(self.nbytes)]
        return [cols[:, bp] + offset for bp in range(self.nbytes)]

    @staticmethod
    def _gather(table: np.ndarray, index: list[np.ndarray], op) -> np.ndarray:
        """op over byte positions bp of table[bp][index[bp]]."""
        acc = table[0][index[0]]
        for bp in range(1, len(index)):
            op(acc, table[bp][index[bp]], out=acc)
        return acc

    def canonicalize(self, masks: np.ndarray) -> np.ndarray:
        """Canonical form of every mask.  A mask is paired with its members
        in the orbit of m*; pairs are processed about `_PAIR_CHUNK` at a
        time.  The empty set gets one pair, whose every image is empty."""
        least = self._gather(self.least_table, self._bytes(masks), np.minimum)  # m*
        order = np.argsort(self.rank[least], kind="stable") if self.sort_classes else slice(None)
        sets, least = masks[order], least[order]
        hits = sets & self.orbit_masks[least]
        counts = np.maximum(self._gather(self.popcount, self._bytes(hits), np.add), 1).astype(np.intp)
        parts = [slice(None)]
        if counts.sum() > _PAIR_CHUNK:
            cuts = np.flatnonzero(np.diff(np.cumsum(counts) // _PAIR_CHUNK)) + 1
            parts = np.split(np.arange(len(sets)), cuts)
        out = np.empty_like(masks)
        canon = np.empty_like(masks)
        for part in parts:
            best = self._best_images(sets[part], hits[part], counts[part], least[part])
            canon[part] = self._gather(self.rev_table, self._bytes(best), np.bitwise_or)
        out[order] = canon
        return out

    def _best_images(
        self, sets: np.ndarray, hits: np.ndarray, counts: np.ndarray, least: np.ndarray
    ) -> np.ndarray:
        """For each set, the max over its pairs (v, s) of the bit-reversed
        s(c_v(set)): v runs over the `counts` bits of `hits` (vertex 0 for
        the empty set), and s over the stabilizer of `least`, its m*."""
        starts = np.cumsum(counts) - counts
        members = np.zeros(counts.sum(), dtype=np.intp)
        # pair j of set i sits at starts[i] + j: peel the lowest bit per round
        at = starts
        while len(hits):
            keep = hits != 0
            at, hits = at[keep], hits[keep]
            low = hits & (~hits + np.uint64(1))
            # a power of two converts to float64 exactly: read its exponent
            members[at] = (low.astype(np.float64).view(np.int64) >> 52) - 1023
            hits = hits ^ low
            at = at + 1
        best = self._gather(
            self.coset_table, self._bytes(np.repeat(sets, counts), members << 8), np.bitwise_or
        )
        if self.class_cut:
            # the identity's image is `best` itself
            pair_ranks = np.repeat(self.rank[least], counts)
            stops = np.searchsorted(pair_ranks, self.class_cut)
            index = self._bytes(best[: stops[0]], pair_ranks[: stops[0]].astype(np.intp) << 8)
            for table, stop in zip(self.stab_tables, stops):
                image = self._gather(table, [ix[:stop] for ix in index], np.bitwise_or)
                np.maximum(best[:stop], image, out=best[:stop])
        return np.maximum.reduceat(best, starts)


# ---------------------------------------------------------------------------
# layered canonical search


class _CanonicalSearch:
    """Canonical k-sets by orderly generation, one level at a time; only the
    current level is kept."""

    def __init__(self, spec: GridSpec, r: int, node_budget: int | None):
        self.spec = spec
        self.kernel = _MaskKernel(spec, r)
        self.tables = _CanonicalTables(spec)
        self.group_order = self.tables.group_order
        self.node_budget = node_budget
        self.nodes = 0
        self.size = 0  # every set in `level` has this many vertices
        self.level = np.zeros(1, dtype=np.uint64)
        self.bits = np.uint64(1) << np.arange(spec.num_vertices, dtype=np.uint64)

    def _children(self, parents: np.ndarray) -> np.ndarray:
        """Each parent extended by every vertex above its maximum; a parent
        has no vertex at or above v exactly when its mask is below 1 << v.
        Parents are sorted, so the children are counted against the node
        budget before any is built."""
        ends = np.searchsorted(parents, self.bits)
        count = int(ends.sum())
        if self.node_budget is not None and self.nodes + count > self.node_budget:
            self.nodes = self.node_budget + 1
            raise SearchBudgetExceeded(f"node budget exceeded at {self.nodes}")
        self.nodes += count
        return np.concatenate([parents[:end] | bit for end, bit in zip(ends.tolist(), self.bits)])

    def _grow(self) -> int | None:
        """Advance `level` by one vertex; returns a percolating child instead
        when there is one (the level is then left as it was)."""
        children = self._children(self.level)
        for start in range(0, len(children), _CLOSURE_CHUNK):
            chunk = children[start : start + _CLOSURE_CHUNK]
            perc = self.kernel.closure(chunk) == self.kernel.full
            if perc.any():
                return int(chunk[np.argmax(perc)])
        self.level = children[self.tables.canonicalize(children) == children]
        self.size += 1
        return None

    def decide_layer(self, k: int) -> tuple[bool, int | None, int | None]:
        """Does any k-subset percolate?  Returns (found, witness mask,
        canonical count when the layer was exhausted).  Layers are decided
        in increasing order; a percolating set found below k (possible only
        with an unsound seed) is padded up to k vertices."""
        while self.size < k:
            mask = self._grow()
            if mask is not None:
                free = [v for v in self.spec.vertices() if not (mask >> v) & 1]
                for v in free[: k - self.size - 1]:
                    mask |= 1 << v
                return True, mask, None
        return False, None, len(self.level)


class _NaiveSearch:
    """Reference decision without symmetry: every k-subset of a layer, each
    counted as a node, so the node budget bounds the work inside a layer."""

    group_order = 1

    def __init__(self, spec: GridSpec, r: int, node_budget: int | None):
        self.spec = spec
        self.r = r
        self.node_budget = node_budget
        self.nodes = 0

    def decide_layer(self, k: int) -> tuple[bool, int | None, int | None]:
        """Same contract as `_CanonicalSearch.decide_layer`; the count of an
        exhausted layer is the number of k-subsets."""
        full = self.spec.full_vertex_mask
        start = self.nodes
        for combo in combinations(self.spec.vertices(), k):
            self.nodes += 1
            if self.node_budget is not None and self.nodes > self.node_budget:
                raise SearchBudgetExceeded(f"node budget exceeded at {self.nodes}")
            mask = 0
            for v in combo:
                mask |= 1 << v
            if closure_mask(self.spec, mask, self.r) == full:
                return True, mask, None
        return False, None, self.nodes - start


def _witness(spec: GridSpec, r: int, mask: int) -> PercolatingWitness:
    if closure_mask(spec, mask, r) != spec.full_vertex_mask:
        raise AssertionError("search produced a non-percolating witness")
    return PercolatingWitness(spec, r, VertexSet(spec, mask), "search")


def exhaust_layer(
    spec: GridSpec, r: int, k: int, node_budget: int | None = None, symmetry: bool = True
) -> tuple[bool, PercolatingWitness | None, ExhaustionRecord | None]:
    """Complete decision of one layer: does some k-set percolate?  Raises
    SearchBudgetExceeded once more than `node_budget` nodes are generated."""
    search = (_CanonicalSearch if symmetry else _NaiveSearch)(spec, r, node_budget)
    found, mask, count = search.decide_layer(k)
    if found:
        return True, _witness(spec, r, mask), None
    return False, None, ExhaustionRecord(k, search.group_order, count)


def exact_min(config: SearchConfig) -> SearchResult:
    """Minimum percolating set size, seeded at the certified lower bound and
    decided layer by layer, over canonical representatives unless
    `symmetry` is off."""
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

    size_cap = n if config.size_budget is None else min(config.size_budget, n)
    layers = _CanonicalSearch if config.symmetry else _NaiveSearch
    search = layers(spec, r, config.node_budget)
    last_exhausted: ExhaustionRecord | None = None
    try:
        for k in range(seed, size_cap + 1):
            found, mask, count = search.decide_layer(k)
            if found:
                return SearchResult(
                    spec, r, k, "exact", _witness(spec, r, mask), search.nodes,
                    last_exhausted is not None, last_exhausted, seed, basis,
                )
            last_exhausted = ExhaustionRecord(k, search.group_order, count)
    except SearchBudgetExceeded:
        pass
    return SearchResult(
        spec, r, None, "budget", None, search.nodes, False, last_exhausted, seed, basis
    )

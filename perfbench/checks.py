"""Independent checks on percforge outputs.

Nothing here calls into percforge: grids, orbit counts, closures and the
tampered artifacts are all computed from first principles, so a later change
to a percforge kernel cannot make its own output look right.

Conventions copied from the percforge file formats (and nothing else):
vertices are 0-based row-major indices with axis 1 fastest; edges are
numbered axis-major, then by lower endpoint index.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from itertools import permutations
from math import prod


# -- grids ---------------------------------------------------------------------


def strides(dims: tuple[int, ...]) -> list[int]:
    out, s = [], 1
    for a in dims:
        out.append(s)
        s *= a
    return out


def neighbours(dims: tuple[int, ...], v: int) -> list[int]:
    out = []
    for a, s in zip(dims, strides(dims)):
        c = (v // s) % a
        if c > 0:
            out.append(v - s)
        if c < a - 1:
            out.append(v + s)
    return out


def edge_list(dims: tuple[int, ...]) -> list[tuple[int, int]]:
    """(lower endpoint, upper endpoint) in the global edge enumeration."""
    n = prod(dims)
    out = []
    for a, s in zip(dims, strides(dims)):
        for v in range(n):
            if (v // s) % a != a - 1:
                out.append((v, v + s))
    return out


def set_closure(dims: tuple[int, ...], infected, r: int) -> set[int]:
    """Fixpoint of the r-neighbour process by per-vertex neighbour counts."""
    cur = set(infected)
    frontier = set(cur)
    while frontier:
        candidates = {u for v in frontier for u in neighbours(dims, v)} - cur
        frontier = {
            u for u in candidates if sum(w in cur for w in neighbours(dims, u)) >= r
        }
        cur |= frontier
    return cur


def set_percolates(dims: tuple[int, ...], infected, r: int) -> bool:
    return len(set_closure(dims, infected, r)) == prod(dims)


# -- orbit counts ----------------------------------------------------------------


def hypercube_group(d: int) -> list[list[int]]:
    """The 2^d d! automorphisms of Q_d: permute the coordinate bits, then
    flip a subset of them."""
    n = 1 << d
    out = []
    for sigma in permutations(range(d)):
        moved = [sum(((v >> i) & 1) << sigma[i] for i in range(d)) for v in range(n)]
        for flip in range(n):
            out.append([m ^ flip for m in moved])
    return out


def burnside_orbits(perms: list[list[int]], n: int, k: int) -> int:
    """Orbits of k-subsets of n points: the group average of the number of
    k-subsets that are unions of whole cycles of each permutation."""
    total = 0
    for p in perms:
        seen = [False] * n
        poly = [1] + [0] * k
        for v in range(n):
            if seen[v]:
                continue
            length = 0
            while not seen[v]:
                seen[v] = True
                v = p[v]
                length += 1
            for s in range(k, length - 1, -1):
                poly[s] += poly[s - length]
        total += poly[k]
    if total % len(perms):
        raise ValueError("orbit count is not an integer: the permutations are not a group")
    return total // len(perms)


# -- output checks ---------------------------------------------------------------


def trace_problem(doc: dict, n: int, a0: list[int]) -> str | None:
    """An infection trace is consistent when its rounds are pairwise disjoint
    and disjoint from a0, and a0 plus the rounds cover every vertex exactly
    when the trace claims percolation."""
    if doc.get("a0") != a0:
        return "trace does not echo the initial set"
    seen = set(a0)
    count = len(seen)
    for rnd in doc["rounds"]:
        if not rnd:
            return "empty round"
        seen.update(rnd)
        count += len(rnd)
        if len(seen) != count:
            return "rounds overlap each other or the initial set"
    if any(not 0 <= v < n for v in seen):
        return "vertex out of range"
    if (len(seen) == n) != doc["percolated"]:
        return "percolation flag disagrees with the rounds"
    return None


# -- tampered artifacts ----------------------------------------------------------
#
# Each generator returns a well-formed copy with exactly one false claim, and
# each claim is false for a mathematical reason, so a sound verifier must reject
# every copy.


def tamper_rank_certificate(doc: dict, dims: tuple[int, ...]) -> dict:
    """Add 1 to one entry of the vector of an edge that has an endpoint of
    degree >= r+1.  Every (r+1)-star at that endpoint through the edge has a
    vanishing relation with all coefficients nonzero, so the change breaks it."""
    r = doc["r"]
    for e, (u, v) in enumerate(edge_list(dims)):
        if max(len(neighbours(dims, u)), len(neighbours(dims, v))) >= r + 1:
            break
    else:
        raise ValueError("no vertex has degree r+1; nothing constrains the vectors")
    out = copy.deepcopy(doc)
    x = Fraction(out["vectors"][e][0]) + 1
    out["vectors"][e][0] = str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return out


def rank_tamperable(dims: tuple[int, ...], r: int) -> bool:
    return r >= 1 and 2 * sum(a > 2 for a in dims) + sum(a == 2 for a in dims) >= r + 1


def tamper_saturation_certificate(doc: dict) -> dict:
    """Drop the first base edge.  No addition adds it back, so the replay
    cannot cover the edge set."""
    if not doc["base_edges"]:
        raise ValueError("certificate has no base edge to drop")
    out = copy.deepcopy(doc)
    out["base_edges"] = out["base_edges"][1:]
    return out


def tamper_witness(doc: dict) -> dict:
    """Remove one vertex of a minimum percolating set.  The set was minimum,
    so the smaller set cannot percolate."""
    out = copy.deepcopy(doc)
    out["vertices"] = out["vertices"][:-1]
    out["size"] = len(out["vertices"])
    return out

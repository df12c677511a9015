"""Independent brute-force reference implementations used as test oracles.

Everything here works from first principles on explicit coordinate tuples
and per-vertex loops, deliberately sharing no kernel code with the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm


def naive_vertices(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All coordinate tuples, ordered to match row-major axis-1-fastest."""
    return [tuple(reversed(c)) for c in product(*(range(1, a + 1) for a in reversed(dims)))]


def naive_edges(dims: tuple[int, ...]) -> set[frozenset[tuple[int, ...]]]:
    """All grid edges as unordered coordinate pairs."""
    out = set()
    for v in naive_vertices(dims):
        for i in range(len(dims)):
            if v[i] + 1 <= dims[i]:
                u = v[:i] + (v[i] + 1,) + v[i + 1 :]
                out.add(frozenset((v, u)))
    return out


def naive_edge_endpoints(dims: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every edge as (lower, upper) vertex positions in `naive_vertices`
    order, listed axis by axis and, within an axis, by the lower endpoint;
    the upper endpoint is the lower one moved up by 1 on the edge's axis."""
    verts = naive_vertices(dims)
    index = {c: i for i, c in enumerate(verts)}
    out = []
    for i in range(len(dims)):
        for c in verts:
            if c[i] < dims[i]:
                out.append((index[c], index[c[:i] + (c[i] + 1,) + c[i + 1 :]]))
    return out


def naive_label_table(dims: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """(vertex position, label) -> edge position in `naive_edge_endpoints`,
    labelling each edge from scratch by the odd/even rule at both ends."""
    verts = naive_vertices(dims)
    table = {}
    for k, (u, w) in enumerate(naive_edge_endpoints(dims)):
        axis = next(i for i in range(len(dims)) if verts[u][i] != verts[w][i]) + 1
        label = 2 * axis - 1 if verts[u][axis - 1] % 2 == 1 else 2 * axis
        for v in (u, w):
            assert (v, label) not in table, "two edges share a label at a vertex"
            table[v, label] = k
    return table


def naive_neighbors(dims: tuple[int, ...], v: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = []
    for i in range(len(dims)):
        for delta in (-1, 1):
            c = v[i] + delta
            if 1 <= c <= dims[i]:
                out.append(v[:i] + (c,) + v[i + 1 :])
    return out


def naive_incident_labels(dims: tuple[int, ...], v: tuple[int, ...]) -> set[int]:
    """Label set at v derived straight from the odd/even rule, by listing
    the incident edges and labelling each one from scratch."""
    labels = set()
    for u in naive_neighbors(dims, v):
        axis = next(i for i in range(len(dims)) if u[i] != v[i]) + 1
        low = min(u[axis - 1], v[axis - 1])
        labels.add(2 * axis - 1 if low % 2 == 1 else 2 * axis)
    return labels


def naive_step(dims: tuple[int, ...], infected: set[tuple[int, ...]], r: int) -> set:
    """One synchronous infection round by per-vertex neighbor counting."""
    out = set(infected)
    for v in naive_vertices(dims):
        if v in infected:
            continue
        count = sum(1 for u in naive_neighbors(dims, v) if u in infected)
        if count >= r:
            out.add(v)
    return out


def naive_closure(dims: tuple[int, ...], infected: set[tuple[int, ...]], r: int) -> set:
    cur = set(infected)
    while True:
        nxt = naive_step(dims, cur, r)
        if nxt == cur:
            return cur
        cur = nxt


def naive_percolates(dims: tuple[int, ...], infected: set, r: int) -> bool:
    return len(naive_closure(dims, infected, r)) == len(naive_vertices(dims))


def naive_automorphisms(dims: tuple[int, ...]) -> list[list[int]]:
    """The grid automorphisms the search uses, one coordinate tuple at a
    time: for every axis permutation sigma that respects side lengths (in
    `permutations` order) and every reversal bitmask (bit i reverses axis i
    of the image), vertex c maps to the vertex with coordinates
    c[sigma[i]], reversed where bit i is set."""
    d = len(dims)
    verts = naive_vertices(dims)
    index = {c: i for i, c in enumerate(verts)}
    out = []
    for sigma in permutations(range(d)):
        if any(dims[sigma[i]] != dims[i] for i in range(d)):
            continue
        for flips in range(1 << d):
            table = []
            for c in verts:
                image = tuple(
                    dims[i] + 1 - c[sigma[i]] if (flips >> i) & 1 else c[sigma[i]]
                    for i in range(d)
                )
                table.append(index[image])
            out.append(table)
    return out


def burnside_subset_orbits(perms: list[list[int]], n: int, k: int) -> int:
    """Number of orbits of k-subsets of an n-point set under a permutation
    group, by averaging fixed-subset counts over the group.  A subset is
    fixed by a permutation exactly when it is a union of whole cycles."""
    total = 0
    for p in perms:
        seen = [False] * n
        lengths = []
        for v in range(n):
            if not seen[v]:
                length = 0
                u = v
                while not seen[u]:
                    seen[u] = True
                    u = p[u]
                    length += 1
                lengths.append(length)
        poly = [0] * (k + 1)
        poly[0] = 1
        for length in lengths:
            for s in range(k, length - 1, -1):
                poly[s] += poly[s - length]
        total += poly[k]
    assert total % len(perms) == 0
    return total // len(perms)


def naive_primitive_int_row(row) -> tuple[int, ...]:
    """Primitive integer multiple of a rational row, computed in Fractions:
    clear every denominator, divide by the gcd, and make the first nonzero
    entry positive."""
    fracs = [Fraction(x) for x in row]
    denom = lcm(*(x.denominator for x in fracs))
    ints = [int(x * denom) for x in fracs]
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def dims_up_to(limit, measure) -> list[tuple[int, ...]]:
    """Non-decreasing side tuples with measure(dims) <= limit."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], min_side: int):
        a = min_side
        while True:
            dims = prefix + (a,)
            if measure(dims) > limit:
                break
            out.append(dims)
            rec(dims, a)
            a += 1

    rec((), 2)
    return out

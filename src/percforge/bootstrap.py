"""The r-neighbour infection process on grid graphs.

Starting from an initial infected set, a healthy vertex becomes infected
once at least r of its neighbors are infected; infected vertices stay
infected.  Rounds are synchronous, and the closure (fixpoint) is reached in
at most |V| - |initial| productive rounds.  The initial set *percolates*
when the closure is the whole vertex set.

The round kernel never loops over vertices: the 2d shifted neighbor bitmaps
are accumulated with a bit-sliced ripple-carry adder that saturates at r,
then a bit-parallel comparator extracts the vertices with count >= r.  A
single kernel, ``_bitsliced_round``, serves both Python-int bitsets (for
simulation) and numpy uint64 arrays of bitsets (for exact search).
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import GridSpec, VertexSet


@dataclass(frozen=True)
class InfectionState:
    """Infected set after some number of synchronous rounds."""

    spec: GridSpec
    infected: VertexSet
    round: int = 0


@dataclass(frozen=True)
class InfectionTrace:
    """Full run to the fixpoint: newly infected vertices per round."""

    spec: GridSpec
    r: int
    initial: VertexSet
    rounds: tuple[VertexSet, ...]
    final: VertexSet
    percolated: bool

    def to_json_doc(self) -> dict:
        return {
            "kind": "infection-trace",
            "spec": str(self.spec),
            "r": self.r,
            "a0": self.initial.indices(),
            "rounds": [rnd.indices() for rnd in self.rounds],
            "percolated": self.percolated,
        }


def _bitsliced_round(cur, plan, r, full):
    """One synchronous round on a bitset: a Python int, or a numpy uint64
    array with one bitset per entry (only <<, >>, &, | and ^ touch it).

    Neighbor bits are summed into count planes (LSB first); a carry out of
    the top plane marks a count certainly >= r.  The comparator then walks
    the bits of r from the top.  The accumulators start as the int 0 and
    `full`, so the first operation on each name builds a fresh array and
    `cur` is never written.
    """
    if r <= 0:
        return cur | full
    planes = [0] * r.bit_length()
    sat = 0
    for shift, recv in plan:
        carry = (cur << shift if shift >= 0 else cur >> -shift) & recv
        for b in range(len(planes)):
            t = planes[b] & carry
            planes[b] ^= carry
            carry = t
        sat |= carry
    gt = 0
    eq = full
    for b in reversed(range(len(planes))):
        p = planes[b]
        if (r >> b) & 1:
            eq &= p
        else:
            gt |= eq & p
            eq &= full ^ p
    return cur | sat | gt | eq


def infect_step_mask(spec: GridSpec, infected: int, r: int) -> int:
    """One synchronous round on a raw bitset; returns the new bitset."""
    return _bitsliced_round(infected, spec.shift_plan, r, spec.full_vertex_mask)


def step(state: InfectionState, r: int) -> InfectionState:
    """One round; idempotent once the fixpoint is reached."""
    if r < 0:
        raise ValueError("infection threshold must be >= 0")
    mask = infect_step_mask(state.spec, state.infected.mask, r)
    return InfectionState(state.spec, VertexSet(state.spec, mask), state.round + 1)

def closure(spec: GridSpec, a0: VertexSet, r: int) -> InfectionTrace:
    """Iterate rounds to the fixpoint and record each round's new infections."""
    if a0.spec != spec:
        raise ValueError("initial set belongs to a different grid")
    cur = a0.mask
    rounds: list[VertexSet] = []
    full = spec.full_vertex_mask
    while True:
        nxt = infect_step_mask(spec, cur, r)
        if nxt == cur:
            break
        rounds.append(VertexSet(spec, nxt & ~cur))
        cur = nxt
        if cur == full:
            break
    final = VertexSet(spec, cur)
    return InfectionTrace(spec, r, a0, tuple(rounds), final, cur == full)


def closure_mask(spec: GridSpec, a0: int, r: int) -> int:
    """Fixpoint of the infection process on a raw bitset."""
    cur = a0
    full = spec.full_vertex_mask
    while True:
        nxt = infect_step_mask(spec, cur, r)
        if nxt == cur or nxt == full:
            return nxt
        cur = nxt


def percolates(spec: GridSpec, a0: VertexSet, r: int) -> bool:
    """Does the closure of a0 cover every vertex?  Early-exits at fixpoint."""
    return closure_mask(spec, a0.mask, r) == spec.full_vertex_mask

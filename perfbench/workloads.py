"""Seeded operation lists for the workloads.

An operation is one ``perc-forge`` command line.  Everything here depends
only on the workload name and the seed, so the same seed gives the same
commands, files and expected answers.  The checks attached to each operation
come from perfbench/checks.py or from a closed form that does not build the
artifact under test (``counts.w_recurrence``, ``witnesses.r3_target_size``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import prod
from pathlib import Path
from typing import Callable

import checks


BUILD, VERIFY = "build", "verify"
# about one verify operation in TAMPER_EVERY replays a tampered copy
TAMPER_EVERY = 5


@dataclass
class Op:
    argv: list[str]
    phase: str
    expect: int = 0
    check: Callable[[dict], str | None] | None = None
    # benchmark-side step before the command runs, given the standard
    # output of the earlier operations of the pass; it is not timed
    prepare: Callable[[list[str]], None] | None = None
    out: Path | None = None
    reads: Path | None = None
    tamper: bool = False
    kind: str = field(init=False)

    def __post_init__(self):
        self.kind = self.argv[0]


def grid_text(dims: tuple[int, ...]) -> str:
    return "x".join(str(a) for a in dims)


def edge_count(dims: tuple[int, ...]) -> int:
    n = prod(dims)
    return sum((a - 1) * (n // a) for a in dims)


def dims_up_to(limit: int, measure) -> list[tuple[int, ...]]:
    """Non-decreasing side tuples (grids up to axis order) with
    measure(dims) <= limit."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], side: int):
        while measure(prefix + (side,)) <= limit:
            out.append(prefix + (side,))
            rec(prefix + (side,), side)
            side += 1

    rec((), 2)
    return out


def _tampered_copy(src: Path, dst: Path, tamper) -> Callable[[list[str]], None]:
    def prepare(outputs):
        dst.write_text(json.dumps(tamper(json.loads(src.read_text())), indent=2) + "\n")

    return prepare


def _expect_rejected(doc: dict) -> str | None:
    return None if doc.get("ok") is False else "tampered artifact was accepted"


# -- rank-cert -------------------------------------------------------------------

RANK_SAMPLES = 50
RANK_SKEW = 4
RANK_SPACE = Path(__file__).resolve().parent / "rank_space.txt"


def rank_space() -> list[tuple[tuple[int, ...], int]]:
    """The instances of rank_space.txt in file order, after checking that
    they are exactly the criterion-4 space."""
    listed = []
    for line in RANK_SPACE.read_text().splitlines():
        if line and not line.startswith("#"):
            grid, r, _ = line.split()
            listed.append((tuple(int(a) for a in grid.split("x")), int(r)))
    space = {(dims, r) for dims in dims_up_to(256, edge_count) for r in range(1, 2 * len(dims) + 1)}
    if len(listed) != len(space) or set(listed) != space:
        raise ValueError(f"{RANK_SPACE} is not the criterion-4 space")
    return listed


def rank_cert(seed: int, work: Path, api) -> list[Op]:
    """RANK_SAMPLES instances of the criterion-4 space (every grid with at
    most 256 edges, every 1 <= r <= 2d): sample b is the instance nearest to
    position ((b + 1/2) / RANK_SAMPLES) ** RANK_SKEW of the cost order in
    rank_space.txt that is not taken yet.  The skew makes most instances
    cheap and keeps a few of the most expensive ones, so a pass takes seconds
    and a run can time each operation several times.  The seed orders the
    operations.  It does not pick the instances: drawing them per seed, even
    among cost neighbours, moved op_p50_s and op_p90_s by a quarter."""
    space = rank_space()
    left = list(range(len(space)))
    chosen = []
    for b in range(RANK_SAMPLES):
        at = ((b + 0.5) / RANK_SAMPLES) ** RANK_SKEW * len(space)
        chosen.append(min(left, key=lambda i: abs(i - at)))
        left.remove(chosen[-1])
    # one tampered recheck per TAMPER_EVERY instances, spread over those
    # whose certificate has a relation to break
    can = [i for i in chosen if checks.rank_tamperable(*space[i])]
    n = RANK_SAMPLES // TAMPER_EVERY
    tampered = {can[k * len(can) // n] for k in range(n)}
    picks = [(space[i], i in tampered) for i in chosen]
    random.Random(seed).shuffle(picks)
    ops: list[Op] = []
    for i, ((dims, r), tamper) in enumerate(picks):
        ops += _rank_group(dims, r, work / f"rank-{i:03d}.json", api, tamper)
    return ops


def _rank_group(dims, r, path: Path, api, tamper: bool) -> list[Op]:
    w = api.w_recurrence(dims, r)

    def certified(doc):
        if doc["rank"] != w or doc["wsat_lower"] != w:
            return f"rank {doc['rank']} differs from w_recurrence {w}"
        if doc["m_lower"] != -(-w // r):
            return "m_lower is not ceil(rank / r)"
        return None

    def rechecked(doc):
        return None if doc["ok"] is True and doc["rank"] == w else "recheck did not confirm the rank"

    ops = [
        Op(["certify", "--grid", grid_text(dims), "--r", str(r), "--out", str(path)],
           BUILD, check=certified, out=path),
        Op(["recheck", str(path)], VERIFY, check=rechecked, reads=path),
    ]
    if tamper:
        bad = path.with_name(path.stem + "-tampered.json")
        ops.append(Op(["recheck", str(bad)], VERIFY, expect=1, check=_expect_rejected,
                      prepare=_tampered_copy(path, bad, lambda d: checks.tamper_rank_certificate(d, dims)),
                      reads=bad, tamper=True))
    return ops


# -- replay ----------------------------------------------------------------------

WSAT_SMALL = 40
WSAT_LARGE = [((2,) * 12, 2), ((16, 16, 16), 3)]
# (grid, r, initial density): the first eight densities are above the
# percolation threshold and the last four below it.  A percolating trace on
# 2^18 vertices takes seconds (VertexSet conversion), too long for a pass; the
# 2^18 grids run below the threshold.
SIMULATE = [
    ((64, 64), 2, 0.09), ((2,) * 12, 3, 0.05), ((128, 128), 2, 0.07), ((2,) * 14, 3, 0.025),
    ((16, 16, 16), 3, 0.28), ((256, 256), 2, 0.06), ((2,) * 16, 3, 0.02), ((2,) * 15, 3, 0.025),
    ((2,) * 18, 3, 0.005), ((512, 512), 2, 0.03), ((2,) * 14, 3, 0.008), ((256, 256), 2, 0.025),
]
CONSTRUCT_EXTRA = [(6, 2), (9, 4), (11, 5), (12, 2), (14, 4), (16, 5)]


def _wsat_group(dims, r, path: Path, api, tamper: bool) -> list[Op]:
    w = api.w_recurrence(dims, r)

    def built(doc):
        return None if doc["base_edges"] == w and doc["verified"] is True else (
            f"{doc['base_edges']} base edges, w_recurrence says {w}")

    def verified(doc):
        return None if doc["ok"] is True and doc["base_edges"] == w else "certificate not verified"

    ops = [
        Op(["wsat-build", "--grid", grid_text(dims), "--r", str(r), "--out", str(path)],
           BUILD, check=built, out=path),
        Op(["wsat-verify", str(path)], VERIFY, check=verified, reads=path),
    ]
    if tamper:
        bad = path.with_name(path.stem + "-tampered.json")
        ops.append(Op(["wsat-verify", str(bad)], VERIFY, expect=1, check=_expect_rejected,
                      prepare=_tampered_copy(path, bad, checks.tamper_saturation_certificate),
                      reads=bad, tamper=True))
    return ops


def _construct_group(d: int, r: int, path: Path, api, tamper: bool) -> list[Op]:
    def built(doc):
        if r == 3 and doc["size"] != api.r3_target_size(d):
            return f"size {doc['size']} differs from the threshold-3 minimum {api.r3_target_size(d)}"
        return None

    def checked(doc):
        return None if doc["ok"] is True and doc["percolated"] is True else "witness did not percolate"

    ops = [
        Op(["construct", "--grid", f"Q{d}", "--r", str(r), "--out", str(path)], BUILD, check=built, out=path),
        Op(["check", str(path)], VERIFY, check=checked, reads=path),
    ]
    if tamper:
        bad = path.with_name(path.stem + "-tampered.json")
        ops.append(Op(["check", str(bad)], VERIFY, expect=1, check=_expect_rejected,
                      prepare=_tampered_copy(path, bad, checks.tamper_witness), reads=bad, tamper=True))
    return ops


def _simulate_op(dims, r, density, rng, path: Path) -> Op:
    n = prod(dims)
    a0 = sorted(rng.sample(range(n), round(density * n)))

    def traced(doc):
        return checks.trace_problem(doc, n, a0)

    return Op(["simulate", "--grid", grid_text(dims), "--r", str(r),
               "--a0", ",".join(map(str, a0)), "--out", str(path)], VERIFY, check=traced, out=path)


def replay(seed: int, work: Path, api) -> list[Op]:
    """Saturation certificates (build + replay), threshold-3 and recursive
    witnesses (construct + check) and infection traces.  The seed orders the
    operations; the instances are fixed, for the reason given in rank_cert."""
    rng = random.Random(seed)
    groups: list[list[Op]] = []
    # the middle criterion-3 instance of each of WSAT_SMALL blocks of the
    # space ordered by edge count, which sets the cost of build and replay
    small = sorted(
        ((dims, r) for dims in dims_up_to(512, prod) for r in range(0, 2 * len(dims) + 1)),
        key=lambda inst: (edge_count(inst[0]), inst),
    )
    picks = [small[(2 * b + 1) * len(small) // (2 * WSAT_SMALL)] for b in range(WSAT_SMALL)]
    for i, (dims, r) in enumerate(picks):
        tamper = i % TAMPER_EVERY == 0 and r >= 1
        groups.append(_wsat_group(dims, r, work / f"wsat-{i:03d}.json", api, tamper))
    for i, (dims, r) in enumerate(WSAT_LARGE):
        groups.append(_wsat_group(dims, r, work / f"wsat-large-{i}.json", api, False))
    for d in range(3, 17):
        tamper = d % TAMPER_EVERY == 0
        groups.append(_construct_group(d, 3, work / f"witness-q{d}-r3.json", api, tamper))
    for i, (d, r) in enumerate(CONSTRUCT_EXTRA):
        groups.append(_construct_group(d, r, work / f"witness-{i}.json", api, False))
    # the initial sets are fixed too: with seeded ones, a set below the
    # threshold that percolated now and then cost seconds more
    sets = random.Random(0)
    for i, (dims, r, density) in enumerate(SIMULATE):
        groups.append([_simulate_op(dims, r, density, sets, work / f"trace-{i:02d}.json")])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


# -- search ----------------------------------------------------------------------


def search_cube(seed: int, work: Path, api) -> list[Op]:
    """The search pipeline of m(Q5, 4): certify and recheck the rank lower
    bound, exhaust layer 8 of the search (3,779 canonical sets under the
    group of order 3840), then build and check the witness that bounds the
    minimum from above.  The instance is fixed; the seed changes nothing."""
    expected = checks.burnside_orbits(checks.hypercube_group(5), 32, 8)

    def exhausted(doc):
        ex = doc.get("exhaustion") or {}
        if doc["status"] != "budget" or ex.get("k") != 8 or ex.get("group_order") != 3840:
            return f"unexpected search result {doc['status']} {ex}"
        if ex["canonical_sets"] != expected:
            return f"{ex['canonical_sets']} canonical sets, Burnside counts {expected}"
        return None

    return [
        *_rank_group((2,) * 5, 4, work / "rank-q5-r4.json", api, False),
        Op(["search", "--grid", "Q5", "--r", "4", "--seed-lower", "8", "--size-budget", "8"],
           BUILD, expect=3, check=exhausted),
        *_construct_group(5, 4, work / "witness-q5-r4.json", api, False),
    ]


SEARCH_GRID = (2, 2, 4, 4)


def search_grid(seed: int, work: Path, api) -> list[Op]:
    """The search pipeline of m(2x2x4x4, 2) = 5 in a seeded axis order:
    certify and recheck the rank lower bound, find the exact minimum, then
    check the witness the search returns, here and with a set-based closure."""
    dims = tuple(random.Random(seed).sample(SEARCH_GRID, len(SEARCH_GRID)))
    r = 2
    witness = work / "witness-search.json"

    def minimum(doc):
        if doc["status"] != "exact" or doc["exact_m"] != 5 or not doc["witness"]:
            return f"unexpected search result {doc['status']} m={doc['exact_m']}"
        if not checks.set_percolates(dims, doc["witness"]["vertices"], r):
            return "search witness does not percolate"
        return None

    def write_witness(outputs):
        witness.write_text(json.dumps(json.loads(outputs[-1])["witness"], indent=2) + "\n")

    def checked(doc):
        return None if doc["ok"] is True and doc["size"] == 5 else "search witness rejected"

    return [
        *_rank_group(dims, r, work / "rank-search.json", api, False),
        Op(["search", "--grid", grid_text(dims), "--r", str(r)], BUILD, check=minimum),
        Op(["check", str(witness)], VERIFY, check=checked, prepare=write_witness, reads=witness),
    ]


def replay_search(seed: int, work: Path, api) -> list[Op]:
    """The bitset paths in one list: replay, then the two search pipelines,
    which share no files with it."""
    return replay(seed, work, api) + search_cube(seed, work, api) + search_grid(seed, work, api)


BUILDERS = {
    "rank-cert": rank_cert,
    "replay-search": replay_search,
}

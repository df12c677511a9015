"""Self-audit: the cross-check matrix tying every subsystem to the others.

Each row records one deterministic check (formula agreement, oracle
equality, construction exactness, rank certification, two-sided threshold-3
reproduction, tamper rejection, search cross-checks) with its expected and
observed values.  The report passes only if every row passes.  The deep
variant additionally reproduces the exact minimum 14 for Q_5 at threshold 4.
"""

from __future__ import annotations

from .bootstrap import percolates
from .counts import (
    m_lower_grid,
    m_lower_hypercube,
    w_recurrence,
    wsat_grid_closed,
    wsat_hypercube,
)
from .families import FamilyError, assemble_lower_bound
from .grid import GridSpec
from .linalg import CertificationError, LinalgError, build_support_subspace
from .saturation import (
    SaturationCertificate,
    brute_force_wsat,
    build_wsat_grid,
    build_wsat_hypercube,
    verify_certificate,
)
from .search import SearchConfig, exact_min
from .witnesses import build_r3, r3_target_size


def _audit_dims(max_product: int) -> list[tuple[int, ...]]:
    """Non-decreasing side tuples (grids up to axis order) with bounded
    vertex count."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], min_side: int, product: int):
        a = min_side
        while product * a <= max_product:
            dims = prefix + (a,)
            out.append(dims)
            rec(dims, a, product * a)
            a += 1

    rec((), 2, 1)
    return out


def run_audit(deep: bool = False) -> dict:
    rows: list[dict] = []

    def row(check: str, instance: str, expected, got) -> None:
        rows.append(
            {
                "check": check,
                "instance": instance,
                "expected": str(expected),
                "got": str(got),
                "ok": expected == got,
            }
        )

    # 1. closed forms against the recurrence, hypercubes d <= 10
    agree = True
    for d in range(0, 11):
        for r in range(0, d + 1):
            vals = {wsat_hypercube(d, r), w_recurrence((2,) * d, r)}
            if d and 1 <= r:
                vals.add(wsat_grid_closed((2,) * d, r))
            agree = agree and len(vals) == 1
    row("formula-agreement", "hypercubes d<=10, all r", True, agree)

    # 2. brute-force oracle against the closed forms
    for name, spec, rr in [
        ("Q2", GridSpec.hypercube(2), (1, 2)),
        ("Q3", GridSpec.hypercube(3), (1, 2, 3)),
        ("3x3", GridSpec((3, 3)), (1, 2)),
        ("3x2", GridSpec((3, 2)), (1, 2, 3)),
    ]:
        for r in rr:
            got = brute_force_wsat(spec, r + 1).min_edges
            row("oracle-equality", f"{name} r={r}", w_recurrence(spec.dims, r), got)

    # 3. construction exactness (hypercubes d <= 6 and small grids here;
    #    the acceptance suite runs the full desk-scale sweep)
    ok = True
    for d in range(0, 7):
        for r in range(0, d + 1):
            cert = build_wsat_hypercube(d, r)
            ok = ok and cert.num_base_edges == wsat_hypercube(d, r)
            ok = ok and verify_certificate(cert).ok
    row("construction-exactness", "hypercubes d<=6, all r", True, ok)
    ok = True
    for dims in _audit_dims(64):
        for r in range(0, 2 * len(dims) + 1):
            cert = build_wsat_grid(dims, r)
            ok = ok and cert.num_base_edges == w_recurrence(dims, r)
            ok = ok and verify_certificate(cert).ok
    row("construction-exactness", "grids with <=64 vertices, all r", True, ok)

    # 4. rank certificates: a certificate that cannot be built is a failed row
    def rank_row(check: str, instance: str, expected, dims: tuple[int, ...], r: int, field: str):
        try:
            got = getattr(assemble_lower_bound(dims, r), field)
        except (FamilyError, LinalgError) as exc:
            got = f"{type(exc).__name__}: {exc}"
        row(check, instance, expected, got)

    for dims, r in [
        ((2, 2, 2, 2), 3),
        ((2, 2, 2, 2, 2), 4),
        ((3, 3), 2),
        ((3, 3, 2), 3),
        ((2, 2, 2), 2),
    ]:
        instance = f"{'x'.join(map(str, dims))} r={r}"
        rank_row("rank-certificate", instance, w_recurrence(dims, r), dims, r, "rank")
    rank_row("rank-bound-q5", "Q5 r=4 implies m >= 13", 13, (2,) * 5, 4, "m_lower")

    # 5. two-sided threshold-3 reproduction
    for d in range(3, 13):
        w = build_r3(d)
        target = r3_target_size(d)
        two_sided = (
            w.size == target
            and m_lower_hypercube(d, 3).ceil_value == target
            and percolates(w.spec, w.vertices, 3)
        )
        row("threshold3-two-sided", f"Q{d}", True, two_sided)

    # 6. support subspace certification: a failed one is a failed row
    ok = True
    for k in range(1, 11):
        for l in range(0, min(k, 5) + 1):
            try:
                build_support_subspace(k, l).certify()
            except CertificationError:
                ok = False
    row("support-certification", "k<=10, l<=5", True, ok)

    # 7. negative control: a tampered certificate must be rejected
    cert = build_wsat_hypercube(3, 2)
    tampered = SaturationCertificate(
        cert.spec, cert.star_size, cert.base_edges[1:], cert.additions
    )
    row("tamper-rejection", "Q3 r=2 missing base edge", False, verify_certificate(tampered).ok)

    # 8. search cross-checks
    for d, r, expect in [(3, 3, 4), (4, 3, 6), (4, 2, 3)]:
        res = exact_min(SearchConfig(GridSpec.hypercube(d), r))
        row("search-exact", f"Q{d} r={r}", expect, res.exact_m)
        naive = exact_min(SearchConfig(GridSpec.hypercube(d), r, symmetry=False))
        row("search-vs-naive", f"Q{d} r={r}", res.exact_m, naive.exact_m)
    row(
        "search-grid",
        "3x3 r=2",
        m_lower_grid((3, 3), 2).ceil_value,
        exact_min(SearchConfig(GridSpec((3, 3)), 2)).exact_m,
    )

    if deep:
        res = exact_min(SearchConfig(GridSpec.hypercube(5), 4))
        row("deep-search", "Q5 r=4 exact minimum", 14, res.exact_m)
        row("deep-search", "Q5 r=4 layer-13 exhausted", True, res.proof_of_optimality)

    failed = sum(1 for r_ in rows if not r_["ok"])
    return {
        "kind": "audit-report",
        "deep": deep,
        "rows": rows,
        "counts": {"total": len(rows), "failed": failed},
        "pass": failed == 0,
    }

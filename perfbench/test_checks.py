"""Tests for the benchmark's own checkers.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest

import checks
from percforge.bootstrap import closure, percolates
from percforge.cli import main
from percforge.grid import GridSpec, VertexSet


def run_cli(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def test_burnside_counts_q5_orbits():
    group = checks.hypercube_group(5)
    assert len(group) == 3840
    assert checks.burnside_orbits(group, 32, 13) == 98804
    assert checks.burnside_orbits(group, 32, 10) == 19963


def test_hypercube_group_is_the_automorphism_group():
    for d in range(1, 5):
        edges = set(checks.edge_list((2,) * d))
        for perm in checks.hypercube_group(d):
            assert sorted(perm) == list(range(1 << d))
            assert {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges


def test_edge_list_matches_percforge_enumeration():
    for dims in [(2, 2, 2), (3, 3), (4, 2, 3), (5,)]:
        spec = GridSpec(dims)
        assert checks.edge_list(dims) == [spec.endpoints(e) for e in spec.edges_in_order()]


def test_set_closure_agrees_with_percolates():
    rng = random.Random(5)
    for dims in [(2, 2, 2), (3, 3), (2, 2, 2, 2), (3, 2, 2), (4, 4), (3, 3, 3)]:
        spec = GridSpec(dims)
        for _ in range(150):
            r = rng.randrange(1, 2 * len(dims) + 1)
            a0 = [v for v in spec.vertices() if rng.random() < rng.random()]
            got = checks.set_percolates(dims, a0, r)
            assert got == percolates(spec, VertexSet.from_indices(spec, a0), r), (dims, r, a0)
            final = closure(spec, VertexSet.from_indices(spec, a0), r).final
            assert checks.set_closure(dims, a0, r) == set(final)


def test_trace_problem_accepts_real_traces_and_rejects_broken_ones():
    spec = GridSpec((8, 8))
    a0 = [0, 9, 18, 27, 36, 45, 54, 63]
    doc = closure(spec, VertexSet.from_indices(spec, a0), 2).to_json_doc()
    assert doc["percolated"] and checks.trace_problem(doc, 64, a0) is None
    overlap = json.loads(json.dumps(doc))
    overlap["rounds"][1].append(overlap["rounds"][0][0])
    assert checks.trace_problem(overlap, 64, a0)
    short = json.loads(json.dumps(doc))
    short["rounds"].pop()
    assert checks.trace_problem(short, 64, a0)
    assert checks.trace_problem(doc, 64, a0[:-1])


@pytest.mark.parametrize("dims,r", [((3, 3), 1), ((3, 3), 2), ((2, 2, 2), 2), ((2, 3, 3), 3), ((2,) * 4, 3), ((4, 5), 3)])
def test_tampered_rank_certificates_are_rejected(tmp_path, dims, r):
    assert checks.rank_tamperable(dims, r)
    path, bad = tmp_path / "cert.json", tmp_path / "bad.json"
    grid = "x".join(map(str, dims))
    assert run_cli("certify", "--grid", grid, "--r", str(r), "--out", str(path))[0] == 0
    bad.write_text(json.dumps(checks.tamper_rank_certificate(json.loads(path.read_text()), dims)))
    code, doc = run_cli("recheck", str(bad))
    assert code == 1 and doc["ok"] is False


def test_rank_tamperable_needs_a_vertex_of_degree_r_plus_1():
    assert not checks.rank_tamperable((2, 2), 2)
    assert not checks.rank_tamperable((3, 3), 4)
    assert checks.rank_tamperable((3, 3), 3)


@pytest.mark.parametrize("dims,r", [((3, 3), 2), ((2,) * 4, 3), ((4, 5), 1), ((2, 3, 4), 4), ((6,), 2)])
def test_tampered_saturation_certificates_are_rejected(tmp_path, dims, r):
    path, bad = tmp_path / "cert.json", tmp_path / "bad.json"
    grid = "x".join(map(str, dims))
    assert run_cli("wsat-build", "--grid", grid, "--r", str(r), "--out", str(path))[0] == 0
    bad.write_text(json.dumps(checks.tamper_saturation_certificate(json.loads(path.read_text()))))
    code, doc = run_cli("wsat-verify", str(bad))
    assert code == 1 and doc["ok"] is False


@pytest.mark.parametrize("d", range(3, 17))
def test_tampered_minimum_witnesses_are_rejected(tmp_path, d):
    path, bad = tmp_path / "w.json", tmp_path / "bad.json"
    assert run_cli("construct", "--grid", f"Q{d}", "--r", "3", "--out", str(path))[0] == 0
    bad.write_text(json.dumps(checks.tamper_witness(json.loads(path.read_text()))))
    code, doc = run_cli("check", str(bad))
    assert code == 1 and doc["ok"] is False and doc["percolated"] is False


def test_harrell_davis_percentiles():
    import run

    # I_x(a, a) is symmetric about 1/2, and I_x(1, 1) = x
    assert run.regularized_beta(7.5, 7.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert run.regularized_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)
    assert run.regularized_beta(141.3, 15.7, 0.9) == pytest.approx(0.4716662032959, abs=1e-9)
    # the weights sum to one, and for q = 1/2 they are symmetric
    assert run.harrell_davis([5.0] * 9, 0.9) == pytest.approx(5.0)
    assert run.harrell_davis([1.0, 2.0, 3.0, 10.0, 17.0, 18.0, 19.0], 0.5) == pytest.approx(10.0)
    # a swap of ranks moves the estimate a little, not by the gap
    base = [0.01] * 80 + [0.03, 0.045] + [0.1] * 18
    swapped = [0.01] * 80 + [0.045, 0.045] + [0.1] * 18
    assert abs(run.harrell_davis(swapped, 0.9) - run.harrell_davis(base, 0.9)) < 0.002

"""Digests of the artifact sweeps, to compare two versions of percforge.

    PYTHONPATH=src python3 tests/artifact_sweeps.py [rank] [wsat] [search] [replay]

Run from the root of a checkout (every sweep by default).  Each document
sweep builds every document of its instance list in a fixed order and prints
two sha256 digests over the concatenated texts: one over
`json.dumps(doc, indent=2)`, one over the CLI writer's text (`cli._json_text`)
without its final newline.  They are equal exactly when the writer
reproduces the indent-2 text of every document, and either digest changes
when an artifact changes.

* rank: `assemble_lower_bound(dims, r).to_json_doc()` for the 2,360
  criterion-4 instances of perfbench/rank_space.txt, in file order.
* wsat: `build_wsat_grid(dims, r)` for every grid of at most 512 vertices
  (up to axis order) and 0 <= r <= 2d, then `build_wsat_hypercube(d, r)` for
  0 <= r <= d <= 8: 18,954 documents.
* search: `exact_min(SearchConfig(GridSpec(dims), r)).to_json_doc()` for
  every grid of at most 24 vertices (up to axis order) and 1 <= r <= 2d:
  184 documents.

The replay sweep prints one sha256 over the `(ok, index, reason)` of
`verify_certificate` for each certificate of the wsat sweep, replayed in four
forms: as built; with its first base edge dropped; with its first addition's
center moved to the other endpoint of its edge; and with that center moved
to the least vertex off the edge.  A form the certificate cannot take (no
base edge, no addition, no vertex off the edge) enters the digest as None.

Every digest is compared with the one recorded in EXPECTED, the value the
current artifacts give.  The script exits 1 after the last sweep it runs,
naming every sweep whose digests differ from the recorded one.  A change
that alters an artifact on purpose updates EXPECTED and says why.

The file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from functools import lru_cache
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from percforge.cli import _json_text  # noqa: E402
from percforge.families import assemble_lower_bound  # noqa: E402
from percforge.grid import GridSpec  # noqa: E402
from percforge.saturation import (  # noqa: E402
    SaturationCertificate,
    build_wsat_grid,
    build_wsat_hypercube,
    verify_certificate,
)
from percforge.search import SearchConfig, exact_min  # noqa: E402

from naive import naive_edge_endpoints  # noqa: E402  (tests/ is sys.path[0])


def rank_docs():
    import workloads

    for dims, r in workloads.rank_space():
        yield assemble_lower_bound(dims, r).to_json_doc()


def wsat_certs():
    import workloads

    for dims in workloads.dims_up_to(512, prod):
        for r in range(2 * len(dims) + 1):
            yield build_wsat_grid(dims, r)
    for d in range(9):
        for r in range(d + 1):
            yield build_wsat_hypercube(d, r)


def wsat_docs():
    for cert in wsat_certs():
        yield cert.to_json_doc()


def search_docs():
    import workloads

    for dims in workloads.dims_up_to(24, prod):
        for r in range(1, 2 * len(dims) + 1):
            yield exact_min(SearchConfig(GridSpec(dims), r)).to_json_doc()


EXPECTED = {
    "rank": "4f3fd2ae388ee28c55fde0ec4ed2ddf7cac5dd1cf121d51ce8e8143f057343f2",
    "wsat": "5b7f802b77de327fad18582449f5f1538c1abc93a14a74d6d517abf863ee6d1d",
    "search": "2f788d18e45085a46b130b8574047a9c1671fb3dda8cc7bbf20a2e327aaf628f",
    "replay": "482cc11598f6e12d3729009f478aa0035ad89868890418af7578c164608c0f65",
}

DOC_SWEEPS = {"rank": rank_docs, "wsat": wsat_docs, "search": search_docs}
SWEEPS = [*DOC_SWEEPS, "replay"]


def sweep(name: str) -> list[str]:
    plain, written = hashlib.sha256(), hashlib.sha256()
    count = 0
    t0 = time.perf_counter()
    for doc in DOC_SWEEPS[name]():
        plain.update(json.dumps(doc, indent=2).encode())
        text = _json_text(doc)
        if not text.endswith("\n"):
            raise SystemExit(f"{name}: writer text does not end with a newline")
        written.update(text[:-1].encode())
        count += 1
    seconds = time.perf_counter() - t0
    print(f"{name}: {count} documents in {seconds:.1f} s")
    print(f"  json.dumps(doc, indent=2)  {plain.hexdigest()}")
    print(f"  cli._json_text(doc)        {written.hexdigest()}")
    return [plain.hexdigest(), written.hexdigest()]


# certificates come grouped by grid, so one cached grid is enough
_edge_endpoints = lru_cache(maxsize=1)(naive_edge_endpoints)


def replay_forms(cert):
    """The four replay forms of a certificate, None where one does not apply."""
    spec, s, base, adds = cert.spec, cert.star_size, cert.base_edges, cert.additions
    yield cert
    yield SaturationCertificate(spec, s, base[1:], adds) if base else None
    if not adds:
        yield from (None, None)
        return
    edge, first_center, labels = adds[0]
    u, w = _edge_endpoints(spec.dims)[edge]
    off = next((v for v in spec.vertices() if v not in (u, w)), None)
    for center in (u + w - first_center, off):
        if center is None:
            yield None
        else:
            yield SaturationCertificate(spec, s, base, ((edge, center, labels),) + adds[1:])


def replay() -> list[str]:
    digest = hashlib.sha256()
    count = replays = 0
    t0 = time.perf_counter()
    for cert in wsat_certs():
        for form in replay_forms(cert):
            result = None
            if form is not None:
                check = verify_certificate(form)
                result = (check.ok, check.index, check.reason)
                replays += 1
            digest.update(f"{result!r}\n".encode())
        count += 1
    seconds = time.perf_counter() - t0
    print(f"replay: {count} documents, {replays} replays in {seconds:.1f} s")
    print(f"  (ok, index, reason)        {digest.hexdigest()}")
    return [digest.hexdigest()]


if __name__ == "__main__":
    names = sys.argv[1:] or list(SWEEPS)
    unknown = [n for n in names if n not in SWEEPS]
    if unknown:
        raise SystemExit(f"unknown sweep {unknown[0]!r}; choose from {', '.join(SWEEPS)}")
    differ = []
    for name in names:
        digests = replay() if name == "replay" else sweep(name)
        if any(h != EXPECTED[name] for h in digests):
            print(f"  differs from the recorded {EXPECTED[name]}")
            differ.append(name)
    if differ:
        raise SystemExit(f"digests differ from the recorded ones: {', '.join(differ)}")

"""Digests of the three artifact sweeps, to compare two versions of percforge.

    PYTHONPATH=src python3 tests/artifact_sweeps.py [rank] [wsat] [search]

Run from the root of a checkout (both sweeps by default).  Each sweep builds
every document of its instance list in a fixed order and prints two sha256
digests over the concatenated texts: one over `json.dumps(doc, indent=2)`,
one over the CLI writer's text (`cli._json_text`) without its final newline.
They are equal exactly when the writer reproduces the indent-2 text of every
document, and either digest changes when an artifact changes.

* rank: `assemble_lower_bound(dims, r).to_json_doc()` for the 2,360
  criterion-4 instances of perfbench/rank_space.txt, in file order.
* wsat: `build_wsat_grid(dims, r)` for every grid of at most 512 vertices
  (up to axis order) and 0 <= r <= 2d, then `build_wsat_hypercube(d, r)` for
  0 <= r <= d <= 8: 18,954 documents.
* search: `exact_min(SearchConfig(GridSpec(dims), r)).to_json_doc()` for
  every grid of at most 24 vertices (up to axis order) and 1 <= r <= 2d:
  184 documents.

The file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from percforge.cli import _json_text  # noqa: E402
from percforge.families import assemble_lower_bound  # noqa: E402
from percforge.grid import GridSpec  # noqa: E402
from percforge.saturation import build_wsat_grid, build_wsat_hypercube  # noqa: E402
from percforge.search import SearchConfig, exact_min  # noqa: E402


def rank_docs():
    import workloads

    for dims, r in workloads.rank_space():
        yield assemble_lower_bound(dims, r).to_json_doc()


def wsat_docs():
    import workloads

    for dims in workloads.dims_up_to(512, prod):
        for r in range(2 * len(dims) + 1):
            yield build_wsat_grid(dims, r).to_json_doc()
    for d in range(9):
        for r in range(d + 1):
            yield build_wsat_hypercube(d, r).to_json_doc()


def search_docs():
    import workloads

    for dims in workloads.dims_up_to(24, prod):
        for r in range(1, 2 * len(dims) + 1):
            yield exact_min(SearchConfig(GridSpec(dims), r)).to_json_doc()


SWEEPS = {"rank": rank_docs, "wsat": wsat_docs, "search": search_docs}


def sweep(name: str) -> None:
    plain, written = hashlib.sha256(), hashlib.sha256()
    count = 0
    t0 = time.perf_counter()
    for doc in SWEEPS[name]():
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


if __name__ == "__main__":
    names = sys.argv[1:] or list(SWEEPS)
    unknown = [n for n in names if n not in SWEEPS]
    if unknown:
        raise SystemExit(f"unknown sweep {unknown[0]!r}; choose from {', '.join(SWEEPS)}")
    for name in names:
        sweep(name)

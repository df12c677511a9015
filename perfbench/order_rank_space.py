#!/usr/bin/env python3
"""Rewrite perfbench/rank_space.txt: time certify plus recheck on every
instance of the criterion-4 space and list the instances by that time.

    python3 perfbench/order_rank_space.py      # about 15 minutes on 2 cores

Changing the order changes the rank-cert workload, so do it only in a change
that redefines the benchmark, and measure the baseline again afterwards.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
from pathlib import Path

import run
import workloads

HEADER = """\
# The criterion-4 space: every grid with at most 256 edges (up to axis
# order) and every 1 <= r <= 2d, one instance per line as
#   grid r milliseconds
# in increasing order of the time that certify plus recheck took on the
# commit that defined the benchmark (2-core Intel Xeon, Python 3.11.7).
# rank-cert samples by position in this order, so every seed gets work from
# the same cost quantiles.  Regenerate with perfbench/order_rank_space.py.
"""


def main() -> None:
    api = run.load_percforge()
    rows = []
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        cert = str(Path(tmp) / "cert.json")
        for dims in workloads.dims_up_to(256, workloads.edge_count):
            for r in range(1, 2 * len(dims) + 1):
                grid = workloads.grid_text(dims)
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    codes = (api.cli.main(["certify", "--grid", grid, "--r", str(r), "--out", cert]),
                             api.cli.main(["recheck", cert]))
                if codes != (0, 0):
                    raise SystemExit(f"{grid} r={r}: exit codes {codes}")
                rows.append((round((time.perf_counter() - t0) * 1000, 1), grid, r))
    rows.sort()
    lines = [f"{grid} {r} {ms}\n" for ms, grid, r in rows]
    (run.HERE / "rank_space.txt").write_text(HEADER + "".join(lines))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""percforge benchmark.

    python3 perfbench/run.py --workload rank-cert --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; percforge is imported from ./src.
The benchmark drives the product the way users do: it calls
``percforge.cli.main([...])`` in this process, one operation after another
(a closed loop with one client), captures standard output, and writes and
reads artifact files under .perfbench_work/.  Each operation's output is
checked independently (perfbench/checks.py), and a fixed share of verify
operations replays a tampered artifact that must be rejected.

--trace 0 measures the end-to-end metrics: the operation list is run again
and again until --seconds have passed (at least twice), the first pass is a
warm-up, and each operation is timed by its median over the other passes.
--trace 1 runs the list twice untraced and once
with spans around every layer, and reports the per-layer metrics plus the
tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the environment,
the artifact digest and the operation counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from math import exp, lgamma, log
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def load_percforge():
    """Import percforge from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "percforge" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no percforge sources under {src}")
    sys.path.insert(0, str(src))
    import percforge.cli
    import percforge.counts
    import percforge.witnesses

    if Path(percforge.__file__).resolve().parent != (src / "percforge").resolve():
        raise SystemExit(f"perfbench: percforge was imported from {percforge.__file__}, not {src}")
    return SimpleNamespace(
        cli=percforge.cli,
        w_recurrence=percforge.counts.w_recurrence,
        r3_target_size=percforge.witnesses.r3_target_size,
    )


def make_ops(workload: str, seed: int, api):
    import workloads

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return workloads.BUILDERS[workload](seed, work, api)


def time_setup(args) -> float:
    """Time one fresh interpreter's start-up, imports and input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


# -- running operations ------------------------------------------------------------


def run_pass(ops, api, tracer=None):
    """Run every operation once.  Returns per-operation records and the pass
    time, which leaves out the benchmark's own preparation steps."""
    records = []
    outputs: list[str] = []
    prep = 0.0
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if op.prepare is not None:
            p0 = time.perf_counter()
            op.prepare(outputs)
            prep += time.perf_counter() - p0
        before = dict(tracer.calls) if tracer else None
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer:
                tracer.op, tracer.active = i, True
            t0 = time.perf_counter()
            try:
                code = api.cli.main(op.argv)
            except Exception:  # a crash is a failed operation, not a failed benchmark
                code, error = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.active = False
        outputs.append(out.getvalue())
        records.append({"seconds": seconds, "code": code, "stdout": outputs[-1],
                        "stderr": err.getvalue(), "error": error,
                        "calls": (before, dict(tracer.calls)) if tracer else None})
    return records, time.perf_counter() - t_pass - prep


def problem(op, rec) -> str | None:
    """Why an operation failed, or None: an exception, a wrong exit code,
    unparsable output, or an independent check that disagrees."""
    if rec["error"]:
        return rec["error"]
    if rec["code"] != op.expect:
        return f"exit {rec['code']}, expected {op.expect}: {rec['stderr'].strip()}"
    try:
        doc = json.loads(rec["stdout"])
    except json.JSONDecodeError as exc:
        return f"unparsable output: {exc}"
    return op.check(doc) if op.check else None


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the Beta(a, b) distribution function at x."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by Beta((n+1)q, (n+1)(1-q)).  Unlike a nearest-rank
    percentile it does not jump when two operations of different cost swap
    ranks across the percentile."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [regularized_beta(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


# -- environment ---------------------------------------------------------------------


def environment() -> dict:
    import numpy

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "percforge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def artifact_digest(ops, records) -> str:
    """sha256 over every operation's standard output and every artifact file
    it wrote, in operation order."""
    h = hashlib.sha256()
    for op, rec in zip(ops, records):
        h.update(rec["stdout"].encode())
        if op.out is not None and op.out.exists():
            h.update(op.out.read_bytes())
    return h.hexdigest()


# -- main ------------------------------------------------------------------------------


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate the inputs, then exit (times setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment() if not args.setup_only else None
    api = load_percforge()
    ops = make_ops(args.workload, args.seed, api)
    if args.setup_only:
        return 0

    passes = []  # (records, wall)
    tracer = None
    if args.trace:
        from tracer import Tracer

        # a warm-up pass, so that the untraced pass the overhead is measured
        # against is as warm as the traced one
        passes += [run_pass(ops, api), run_pass(ops, api)]
        tracer = Tracer()
        missing = tracer.install()
        for name in missing:
            print(f"perfbench: wrap point {name} is gone; its metrics are absent", file=sys.stderr)
        passes.append(run_pass(ops, api, tracer))
    else:
        # set-up is timed once before the first pass and once after each,
        # so that its median, like the operations', spans the whole run
        setups = [time_setup(args)]
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops, api))
            setups.append(time_setup(args))
            elapsed = time.perf_counter() - start
            left = args.seconds - elapsed
            if len(passes) >= 2 and statistics.median(w for _, w in passes) + statistics.median(setups) > left:
                break
        setup_s = statistics.median(setups)

    attempted = failed = 0
    failures = []
    for records, _ in passes:
        for op, rec in zip(ops, records):
            attempted += 1
            why = problem(op, rec)
            if why:
                failed += 1
                failures.append(f"{' '.join(op.argv)[:120]}: {why}")
    for line in failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    first = passes[0][0]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "tampered_per_pass": sum(op.tamper for op in ops),
        "op_samples": len(ops),
        "error_rate": failed / attempted,
        "artifact_sha256": artifact_digest(ops, first),
        "env": env,
    }
    if args.trace:
        metrics = traced_metrics(ops, passes, tracer)
        spans = WORK / f"spans-{args.workload}-{args.seed}.csv"
        info["spans"] = tracer.write_spans(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(ops, passes, setup_s)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(ops, passes, setup_s: float) -> dict:
    """The first pass is a warm-up.  Each operation's time is its median
    over the other passes.  Other tenants of the host slow operations down
    by up to 1.8 times, in bursts of a second and in phases of minutes; the
    median over passes spread across the whole run follows the phases less
    than the fastest pass does, and it does not fall as the number of passes
    grows."""
    timed = passes[1:]
    times = [statistics.median(records[i]["seconds"] for records, _ in timed) for i in range(len(ops))]
    values = {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "build_s": sum(t for op, t in zip(ops, times) if op.phase == "build"),
        "verify_s": sum(t for op, t in zip(ops, times) if op.phase == "verify"),
        "op_p50_s": harrell_davis(times, 0.5),
        "op_p90_s": harrell_davis(times, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_metrics(ops, passes, tracer) -> dict:
    from tracer import PASS_SPANS

    (_, untraced_wall), (records, traced_wall) = passes[-2:]
    written = read = raw = 0
    certificates = 0
    pass_calls = dict.fromkeys(PASS_SPANS, 0)
    for op, rec in zip(ops, records):
        if op.out is not None and op.out.exists():
            written += op.out.stat().st_size
        if op.reads is not None and op.reads.exists():
            read += op.reads.stat().st_size
        if op.kind == "search" and rec["code"] is not None:
            raw += json.loads(rec["stdout"])["nodes_explored"]
        if op.kind in ("certify", "recheck") and not op.tamper:
            certificates += 1
            before, after = rec["calls"]
            for name in PASS_SPANS:
                pass_calls[name] += after.get(name, 0) - before.get(name, 0)
    extra = {
        "search.raw_extensions": raw,
        "cli.bytes_written": written,
        "cli.bytes_read": read,
        "trace.overhead": traced_wall / untraced_wall,
    }
    return tracer.metrics(extra, certificates, pass_calls)


if __name__ == "__main__":
    sys.exit(main())

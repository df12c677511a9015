"""Spans and counters around percforge's layers, installed from outside.

The traced run replaces the public functions of each module (and two private
kernels that ROADMAP aim 1 names as layers) with wrappers that record a span:
name, start, end, parent and operation id.  A layer's self time is its spans'
durations minus the parts covered by their child spans.  Wrappers are
installed into every percforge module that binds the function, so a call
through ``percforge.families.find_support_vector`` is traced exactly like one
through ``percforge.linalg.find_support_vector``.

A wrap point that no longer exists is skipped, and the metrics that depend on
it are reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# A hook receives (counts, args, result) after the span has closed.  Hooks
# marked costly run inside a "trace" span of their own, so their time is
# charged to no layer.


def _rank_cells(counts, args, result):
    rows, ncols = args[0], args[1]
    counts["linalg.rank_cells"] += len(rows) * ncols


def _certify_checks(counts, args, result):
    counts["linalg.certify_checks"] += result


def _star_checks(counts, args, result):
    counts["families.star_checks"] += result


def _canonical(counts, args, result):
    counts["search.canonicalize_masks"] += len(args[1])
    counts["search.canonical_sets"] += len(np.unique(result))


def _closure_masks(counts, args, result):
    counts["search.closure_masks"] += len(args[1])


def _edges_replayed(counts, args, result):
    cert = args[0]
    counts["saturation.edges_replayed"] += len(cert.base_edges) + len(cert.additions)


def _rounds(counts, args, result):
    counts["bootstrap.rounds"] += 1
    counts["bootstrap.vertex_rounds"] += args[0].num_vertices


# (module, attribute path, span name, counter hook, hook is costly)
WRAP_POINTS = [
    ("linalg", "rank_profile_of_rows", "linalg.rank", _rank_cells, False),
    ("linalg", "reduce_rows", "linalg.reduce", None, False),
    ("linalg", "nullspace_rows", "linalg.nullspace", None, False),
    ("linalg", "find_support_vector", "linalg.support", None, False),
    ("linalg", "SupportSubspace.certify", "linalg.certify", _certify_checks, False),
    ("families", "assemble_lower_bound", "families.build", None, False),
    ("families", "build_edge_vectors_grid", "families.build", None, False),
    ("families", "build_edge_vectors_hypercube", "families.build", None, False),
    ("families", "verify_family", "families.verify_family", None, False),
    ("families", "verify_star_relations", "families.star", _star_checks, False),
    ("families", "family_rank", "families.family_rank", None, False),
    ("families", "rank_certificate_from_json_doc", "families.load", None, False),
    ("families", "recheck_rank_certificate", "families.recheck", None, False),
    ("search", "exact_min", "search.other", None, False),
    ("search", "_CanonicalTables.canonicalize", "search.canonicalize", _canonical, True),
    ("search", "_MaskKernel.closure", "search.closure", _closure_masks, False),
    ("saturation", "build_wsat_grid", "saturation.build", None, False),
    ("saturation", "build_wsat_hypercube", "saturation.build", None, False),
    ("saturation", "verify_certificate", "saturation.verify", _edges_replayed, False),
    ("grid", "VertexSet.from_indices", "grid.vertexset", None, False),
    ("grid", "VertexSet.from_coords", "grid.vertexset", None, False),
    ("grid", "VertexSet.indices", "grid.vertexset", None, False),
    ("counts", "binom", "counts", None, False),
    ("counts", "grid_edge_count", "counts", None, False),
    ("counts", "wsat_hypercube", "counts", None, False),
    ("counts", "wsat_grid_closed", "counts", None, False),
    ("counts", "w_recurrence", "counts", None, False),
    ("counts", "m_lower_hypercube", "counts", None, False),
    ("counts", "m_lower_grid", "counts", None, False),
    ("counts", "m_lower_grid_r2", "counts", None, False),
    ("bootstrap", "infect_step_mask", "bootstrap", _rounds, False),
    ("bootstrap", "step", "bootstrap", None, False),
    ("bootstrap", "closure", "bootstrap", None, False),
    ("bootstrap", "closure_mask", "bootstrap", None, False),
    ("bootstrap", "percolates", "bootstrap", None, False),
    ("witnesses", "base_set", "witnesses.build", None, False),
    ("witnesses", "build_r3", "witnesses.build", None, False),
    ("witnesses", "build_recursive", "witnesses.build", None, False),
    ("witnesses", "explicit_r3_set", "witnesses.build", None, False),
    ("cli", "main", "cli", None, False),
]

# Per-layer metric -> (unit, spans it needs).  Which end-to-end metric each
# should move, and on which workload, is tabulated in perfbench/README.md.
PER_LAYER = {
    "linalg.rank_calls": ("count", ["linalg.rank"]),
    "linalg.rank_cells": ("count", ["linalg.rank"]),
    "linalg.rank_s": ("s", ["linalg.rank"]),
    "linalg.reduce_s": ("s", ["linalg.reduce"]),
    "linalg.nullspace_s": ("s", ["linalg.nullspace"]),
    "linalg.support_solves": ("count", ["linalg.support"]),
    "linalg.support_s": ("s", ["linalg.support"]),
    "linalg.certify_checks": ("count", ["linalg.certify"]),
    "linalg.certify_s": ("s", ["linalg.certify"]),
    "families.build_s": ("s", ["families.build"]),
    "families.verify_family_s": ("s", ["families.verify_family"]),
    "families.star_s": ("s", ["families.star"]),
    "families.star_checks": ("count", ["families.star"]),
    "families.family_rank_s": ("s", ["families.family_rank"]),
    "families.load_s": ("s", ["families.load"]),
    "families.recheck_s": ("s", ["families.recheck"]),
    "families.relation_passes": ("count", ["families.verify_family", "families.star"]),
    "families.rank_passes": ("count", ["families.verify_family", "families.family_rank"]),
    "search.canonicalize_s": ("s", ["search.canonicalize"]),
    "search.canonicalize_masks": ("count", ["search.canonicalize"]),
    "search.closure_s": ("s", ["search.closure"]),
    "search.closure_masks": ("count", ["search.closure"]),
    "search.other_s": ("s", ["search.other", "search.canonicalize", "search.closure"]),
    "search.raw_extensions": ("count", []),
    "search.canonical_sets": ("count", ["search.canonicalize"]),
    "search.canonical_yield": ("ratio", ["search.canonicalize"]),
    "saturation.build_s": ("s", ["saturation.build"]),
    "saturation.verify_s": ("s", ["saturation.verify"]),
    "saturation.edges_replayed": ("count", ["saturation.verify"]),
    "saturation.replay_edges_per_s": ("1/s", ["saturation.verify"]),
    "grid.spec_builds": ("count", ["grid.spec_builds"]),
    "grid.vertexset_calls": ("count", ["grid.vertexset"]),
    "grid.vertexset_s": ("s", ["grid.vertexset"]),
    "counts.calls": ("count", ["counts"]),
    "counts.self_s": ("s", ["counts"]),
    "bootstrap.rounds": ("count", ["bootstrap"]),
    "bootstrap.vertex_rounds": ("count", ["bootstrap"]),
    "bootstrap.self_s": ("s", ["bootstrap"]),
    "witnesses.build_s": ("s", ["witnesses.build"]),
    "cli.self_s": ("s", ["cli"]),
    "cli.bytes_written": ("count", ["cli"]),
    "cli.bytes_read": ("count", ["cli"]),
    "trace.overhead": ("ratio", []),
}

# Certificate passes are counted per certificate over the operations that
# build or fully re-verify one; a tampered copy stops at its first failure.
PASS_SPANS = ("families.verify_family", "families.star", "families.family_rank")


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 0
        # one row per finished span: id, name id, parent id, op id; start, end
        self._ids = array("q")
        self._times = array("d")
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self._stack.append([self._next_id, nid, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        t = time.perf_counter()
        sid, nid, start, child = self._stack.pop()
        dur = t - start
        name = self.names[nid]
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        self._ids.extend((sid, nid, parent, self.op))
        self._times.extend((start, t))

    def write_spans(self, path) -> int:
        """One line per span: id, name, parent id (-1 at the root), op id,
        start and end in seconds of time.perf_counter."""
        n = len(self._times) // 2
        with open(path, "w") as f:
            f.write("id,name,parent,op,start,end\n")
            for i in range(n):
                sid, nid, parent, op = self._ids[4 * i : 4 * i + 4]
                f.write(
                    f"{sid},{self.names[nid]},{parent},{op},"
                    f"{self._times[2 * i]!r},{self._times[2 * i + 1]!r}\n"
                )
        return n

    # -- installation --------------------------------------------------------

    def _wrapper(self, fn, name, hook, costly):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook is not None:
                if costly:
                    tracer.begin("trace")
                    hook(tracer.counts, args, result)
                    tracer.end()
                else:
                    hook(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every wrap point that exists; returns the missing ones."""
        modules = [m for k, m in sys.modules.items() if k == "percforge" or k.startswith("percforge.")]
        missing = []
        for mod_name, path, span, hook, costly in WRAP_POINTS:
            module = sys.modules.get(f"percforge.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = (owner.__dict__ if owner is not None else {}).get(attr)
            if raw is None:
                missing.append(f"{mod_name}.{path}")
                continue
            self.present.add(span)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrapper(raw.__func__, span, hook, costly)))
            elif owner_name:
                setattr(owner, attr, self._wrapper(raw, span, hook, costly))
            else:
                wrapped = self._wrapper(raw, span, hook, costly)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)
        self._count_spec_builds()
        return missing

    def _count_spec_builds(self) -> None:
        grid = sys.modules["percforge.grid"]
        post_init = grid.GridSpec.__dict__.get("__post_init__")
        if post_init is None:
            return
        tracer = self

        @functools.wraps(post_init)
        def counted(spec):
            if tracer.active:
                tracer.counts["grid.spec_builds"] += 1
            return post_init(spec)

        grid.GridSpec.__post_init__ = counted
        self.present.add("grid.spec_builds")

    # -- metrics -------------------------------------------------------------

    def metrics(self, extra: dict[str, float], certificates: int, passes: dict[str, int]) -> dict:
        st, calls, counts = self.self_time, self.calls, self.counts
        per_cert = max(certificates, 1)
        raw = extra["search.raw_extensions"]
        values = {
            "linalg.rank_calls": calls["linalg.rank"],
            "linalg.rank_cells": counts["linalg.rank_cells"],
            "linalg.rank_s": st["linalg.rank"],
            "linalg.reduce_s": st["linalg.reduce"],
            "linalg.nullspace_s": st["linalg.nullspace"],
            "linalg.support_solves": calls["linalg.support"],
            "linalg.support_s": st["linalg.support"],
            "linalg.certify_checks": counts["linalg.certify_checks"],
            "linalg.certify_s": st["linalg.certify"],
            "families.build_s": st["families.build"],
            "families.verify_family_s": st["families.verify_family"],
            "families.star_s": st["families.star"],
            "families.star_checks": counts["families.star_checks"],
            "families.family_rank_s": st["families.family_rank"],
            "families.load_s": st["families.load"],
            "families.recheck_s": st["families.recheck"],
            "families.relation_passes": (passes["families.verify_family"] + passes["families.star"]) / per_cert,
            "families.rank_passes": (passes["families.verify_family"] + passes["families.family_rank"]) / per_cert,
            "search.canonicalize_s": st["search.canonicalize"],
            "search.canonicalize_masks": counts["search.canonicalize_masks"],
            "search.closure_s": st["search.closure"],
            "search.closure_masks": counts["search.closure_masks"],
            "search.other_s": st["search.other"],
            "search.raw_extensions": raw,
            "search.canonical_sets": counts["search.canonical_sets"],
            "search.canonical_yield": counts["search.canonical_sets"] / raw if raw else 0.0,
            "saturation.build_s": st["saturation.build"],
            "saturation.verify_s": st["saturation.verify"],
            "saturation.edges_replayed": counts["saturation.edges_replayed"],
            "saturation.replay_edges_per_s": (
                counts["saturation.edges_replayed"] / st["saturation.verify"]
                if st["saturation.verify"] else 0.0
            ),
            "grid.spec_builds": counts["grid.spec_builds"],
            "grid.vertexset_calls": calls["grid.vertexset"],
            "grid.vertexset_s": st["grid.vertexset"],
            "counts.calls": calls["counts"],
            "counts.self_s": st["counts"],
            "bootstrap.rounds": counts["bootstrap.rounds"],
            "bootstrap.vertex_rounds": counts["bootstrap.vertex_rounds"],
            "bootstrap.self_s": st["bootstrap"],
            "witnesses.build_s": st["witnesses.build"],
            "cli.self_s": st["cli"],
            "cli.bytes_written": extra["cli.bytes_written"],
            "cli.bytes_read": extra["cli.bytes_read"],
            "trace.overhead": extra["trace.overhead"],
        }
        out = {}
        for name, (unit, needs) in PER_LAYER.items():
            if all(span in self.present for span in needs):
                out[name] = {"value": values[name], "unit": unit}
        return out

"""Tamper property suite for the three artifact loaders.

Each golden fixture is mutated one field at a time: every top-level and
nested field (the first three items of each list, at every level) is set to
each value in VALUES, and the CLI verb that reads that artifact runs on the
result in-process.  Every run must end in exit 1 (a false claim) or in exit
2 with exactly one line on stderr (malformed input); no exception may
escape.  Exit 0 is accepted only for the mutations listed in VALID_EDITS,
each of which leaves a valid artifact.
"""

import copy
import json
from pathlib import Path

import pytest

from percforge.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

VALUES = [None, True, "x", -1, 0, 7, 10**6, 1.5, [], {}, "1/0"]

VERBS = {
    "rank_q3_r2.json": "recheck",
    "witness_q5_r3.json": "check",
    "wsat_3x3_r2.json": "wsat-verify",
}

_SAME_INT = (
    "the field already holds this integer; basis entries hold it as a decimal "
    "string, which the loader reads as the same int by design"
)
_BASIS = (
    "a basis edit that recheck still certifies: codimension r, support > r, and "
    "every relation holds, so the certificate is still a proof"
)

# (fixture, field path, value) -> why the mutated file is still valid
VALID_EDITS = {
    ("rank_q3_r2.json", ("subspace_basis", 1, 2), 0): _SAME_INT,
    ("rank_q3_r2.json", ("subspace_basis", 2, 2), 0): _SAME_INT,
    ("rank_q3_r2.json", ("pivot_edges", 0), 0): _SAME_INT,
    ("witness_q5_r3.json", ("vertices", 2), 7): _SAME_INT,
    ("wsat_3x3_r2.json", ("base_edges", 0), 0): _SAME_INT,
    ("witness_q5_r3.json", ("provenance",), "x"): "provenance is a free-form string",
    ("witness_q5_r3.json", ("provenance",), "1/0"): "provenance is a free-form string",
}
for _entry in [(1, 0), (1, 1), (1, 2)]:
    for _value in (-1, 7, 10**6):
        VALID_EDITS[("rank_q3_r2.json", ("subspace_basis",) + _entry, _value)] = _BASIS


def _field_paths(node, prefix=()):
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))[:3]
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("fixture", sorted(VERBS))
def test_every_single_field_mutation_is_rejected_or_valid(tmp_path, capsys, fixture):
    doc = json.loads((FIXTURES / fixture).read_text())
    out = tmp_path / fixture
    for path in _field_paths(doc):
        for value in VALUES:
            out.write_text(json.dumps(_mutated(doc, path, value)))
            code = main([VERBS[fixture], str(out)])
            captured = capsys.readouterr()
            where = (fixture, path, value)
            if code == 0:
                assert where in VALID_EDITS, where
            elif code == 1:
                assert json.loads(captured.out)["ok"] is False, where
            else:
                assert code == 2, where
                assert captured.out == "", where
                assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), where

import json

import pytest

from percforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, (json.loads(out) if out else None), err


def test_bound_q5_r4(capsys):
    code, doc, _ = run_json(capsys, "bound", "--grid", "Q5", "--r", "4")
    assert code == 0
    assert doc["rational"] == "49/4"
    assert doc["ceil"] == 13


def test_bound_grid_r2_refinement(capsys):
    code, doc, _ = run_json(capsys, "bound", "--grid", "3x3", "--r", "2")
    assert code == 0
    assert doc["ceil"] == 3
    assert doc["r2_refined"] == 3


def test_bound_table_r3(capsys):
    code, doc, _ = run_json(capsys, "bound", "--r", "3", "--d-range", "3:16")
    assert code == 0
    sizes = [row["ceil"] for row in doc["rows"]]
    assert sizes == [4, 6, 8, 10, 13, 16, 19, 23, 27, 31, 36, 41, 46, 52]
    assert all(row["r3_exact"] == row["ceil"] for row in doc["rows"])
    code, out, _ = run_cli(capsys, "bound", "--r", "3", "--d-range", "3:16", "--format", "table")
    assert code == 0
    assert "rational" in out and "49/6" not in out


def test_wsat_examples(capsys):
    code, doc, _ = run_json(capsys, "wsat", "--grid", "3x3", "--r", "2")
    assert code == 0
    assert doc == {
        "kind": "wsat",
        "spec": "3x3",
        "r": 2,
        "closed": 6,
        "recurrence": 6,
        "agree": True,
    }
    code, doc, _ = run_json(capsys, "wsat", "--grid", "3x3", "--r", "4")
    assert code == 0
    assert doc["closed"] is None and doc["recurrence"] == 12


def test_parse_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "wsat", "--grid", "3x1", "--r", "2")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "bound", "--grid", "bogus", "--r", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "wsat", "--grid", "3x3")  # argparse usage error
    assert code == 2


def test_wsat_build_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, doc, _ = run_json(capsys, "wsat-build", "--grid", "Q5", "--r", "3", "--out", str(out))
    assert code == 0
    assert doc["base_edges"] == 23 and doc["verified"] is True
    code, doc, _ = run_json(capsys, "wsat-verify", str(out))
    assert code == 0 and doc["ok"] is True


def test_wsat_verify_rejects_corrupted_fixture(tmp_path, capsys):
    out = tmp_path / "cert.json"
    run_cli(capsys, "wsat-build", "--grid", "3x3", "--r", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["base_edges"] = doc["base_edges"][1:]  # break coverage
    out.write_text(json.dumps(doc))
    code, verdict, _ = run_json(capsys, "wsat-verify", str(out))
    assert code == 1
    assert verdict["ok"] is False and verdict["reason"]


def _labels_not_a_list(doc):
    doc["additions"][0]["labels"] = 5


def _top_level_list(doc):
    return [doc]


def _base_edges_not_a_list(doc):
    doc["base_edges"] = {"0": 1}


def _additions_not_a_list(doc):
    doc["additions"] = "0"


def _addition_not_an_object(doc):
    doc["additions"][0] = [1, 2, 3]


def _edge_not_an_integer(doc):
    doc["additions"][0]["edge"] = 1.5


def _star_size_null(doc):
    doc["star_size"] = None


def _star_size_zero(doc):
    doc["star_size"] = 0


@pytest.mark.parametrize(
    "corrupt",
    [_labels_not_a_list, _top_level_list, _base_edges_not_a_list, _additions_not_a_list,
     _addition_not_an_object, _edge_not_an_integer, _star_size_null, _star_size_zero],
)
def test_wsat_verify_rejects_malformed_certificate(tmp_path, capsys, corrupt):
    out = tmp_path / "cert.json"
    assert main(["wsat-build", "--grid", "Q3", "--r", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc = corrupt(doc) or doc
    out.write_text(json.dumps(doc))
    code, stdout, err = run_cli(capsys, "wsat-verify", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: malformed certificate: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_threshold_below_one_is_a_domain_error(tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "simulate", "--grid", "Q3", "--r", "-1", "--a0", "1")
    assert code == 2 and stdout == "" and err.count("\n") == 1
    code, _, _ = run_cli(capsys, "simulate", "--grid", "Q3", "--r", "0", "--a0", "1")
    assert code == 2
    out = tmp_path / "witness.json"
    doc = {"kind": "percolating-witness", "spec": "Q3", "r": 0, "size": 0,
           "vertices": [], "provenance": "hand"}
    out.write_text(json.dumps(doc))
    code, stdout, err = run_cli(capsys, "check", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: malformed witness: ") and err.count("\n") == 1


def test_certify_recheck_roundtrip(tmp_path, capsys):
    out = tmp_path / "rank.json"
    code, doc, _ = run_json(capsys, "certify", "--grid", "Q4", "--r", "3", "--out", str(out))
    assert code == 0
    assert doc["rank"] == 17 and doc["m_lower"] == 6
    code, doc, _ = run_json(capsys, "recheck", str(out))
    assert code == 0 and doc["ok"] is True
    payload = json.loads(out.read_text())
    payload["rank"] -= 1
    out.write_text(json.dumps(payload))
    code, doc, _ = run_json(capsys, "recheck", str(out))
    assert code == 1 and doc["ok"] is False


def test_construct_and_check(tmp_path, capsys):
    out = tmp_path / "a0.json"
    code, doc, _ = run_json(capsys, "construct", "--grid", "Q8", "--r", "3", "--out", str(out))
    assert code == 0
    assert doc["size"] == 16
    code, doc, _ = run_json(capsys, "check", str(out))
    assert code == 0 and doc["ok"] is True
    payload = json.loads(out.read_text())
    payload["vertices"] = payload["vertices"][:-1]
    payload["size"] -= 1
    out.write_text(json.dumps(payload))
    code, doc, _ = run_json(capsys, "check", str(out))
    assert code == 1 and doc["percolated"] is False


def _witness_doc(**fields):
    doc = {"kind": "percolating-witness", "spec": "Q3", "r": 2, "size": 2,
           "vertices": [0, 7], "provenance": "hand"}
    doc.update(fields)
    return doc


@pytest.mark.parametrize(
    "command, doc, reason",
    [
        ("check", _witness_doc(vertices=5), "malformed witness: vertices must be a list"),
        ("check", _witness_doc(vertices=[0, None]), "malformed witness: vertex must be an integer"),
        ("check", _witness_doc(size=None), "malformed witness: size must be an integer"),
        ("check", {"kind": "percolating-witness"}, "malformed witness: missing field 'spec'"),
        ("recheck", {"kind": "rank-certificate"}, "malformed rank certificate: missing field 'spec'"),
        ("wsat-verify", {"kind": "saturation-certificate"},
         "malformed certificate: missing field 'spec'"),
        ("check", _witness_doc(provenance=None), "malformed witness: provenance must be a string"),
        ("check", _witness_doc(provenance=7), "malformed witness: provenance must be a string"),
        ("check", _witness_doc(provenance=[]), "malformed witness: provenance must be a string"),
        ("check", _witness_doc(provenance={}), "malformed witness: provenance must be a string"),
    ],
)
def test_loaders_name_the_malformed_field(tmp_path, capsys, command, doc, reason):
    out = tmp_path / "doc.json"
    out.write_text(json.dumps(doc))
    code, stdout, err = run_cli(capsys, command, str(out))
    assert code == 2 and stdout == ""
    assert err == f"error: {reason}\n"


def test_loaders_name_missing_nested_and_later_fields(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["wsat-build", "--grid", "Q3", "--r", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    del doc["additions"][0]["center"]
    out.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "wsat-verify", str(out))
    assert code == 2 and err == "error: malformed certificate: missing field 'center'\n"
    assert main(["certify", "--grid", "Q3", "--r", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    del doc["m_lower"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code, _, err = run_cli(capsys, "recheck", str(out))
    assert code == 2 and err == "error: malformed rank certificate: missing field 'm_lower'\n"


def test_recheck_rejects_exponent_entries_at_once(tmp_path, capsys):
    import time

    out = tmp_path / "rank.json"
    assert main(["certify", "--grid", "Q3", "--r", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc["vectors"][0][0] = "1e10000000"
    out.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, stdout, err = run_cli(capsys, "recheck", str(out))
    assert time.perf_counter() - t0 < 5.0
    assert code == 2 and stdout == "" and err.count("\n") == 1
    assert "not an integer or p/q fraction" in err


def test_construct_rejects_non_hypercube(capsys):
    code, _, err = run_cli(capsys, "construct", "--grid", "3x3", "--r", "2")
    assert code == 2


def test_search_small(capsys):
    code, doc, _ = run_json(capsys, "search", "--grid", "Q3", "--r", "3")
    assert code == 0
    assert doc["exact_m"] == 4
    assert doc["witness"]["size"] == 4
    code, doc, _ = run_json(capsys, "search", "--grid", "Q4", "--r", "3", "--node-budget", "10")
    assert code == 3
    assert doc["status"] == "budget" and doc["exact_m"] is None


def test_naive_search_stops_at_the_node_budget_inside_a_layer(capsys):
    # layer 13 of Q5 has C(32, 13) subsets; the budget must stop it early
    import time

    t0 = time.perf_counter()
    code, doc, _ = run_json(capsys, "search", "--grid", "Q5", "--r", "4", "--no-symmetry",
                            "--node-budget", "1000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert doc["status"] == "budget" and doc["exact_m"] is None
    assert doc["nodes_explored"] <= 1001


def test_node_budget_zero_is_a_budget(capsys):
    code, doc, _ = run_json(capsys, "search", "--grid", "Q4", "--r", "3", "--node-budget", "0")
    assert code == 3
    assert doc["status"] == "budget" and doc["exact_m"] is None


@pytest.mark.parametrize("budget", ["nan", "inf", "1.9", "-1", "1e3"])
def test_node_budget_must_be_a_non_negative_integer(capsys, budget):
    code, out, err = run_cli(capsys, "search", "--grid", "Q4", "--r", "3", "--node-budget", budget)
    assert code == 2 and out == ""
    assert err.startswith("error: --node-budget ") and err.count("\n") == 1


@pytest.mark.parametrize("option", ["--size-budget", "--seed-lower"])
@pytest.mark.parametrize("value", ["-1", "-4", "1.5", "nan", "1e3"])
def test_count_options_must_be_non_negative_integers(capsys, option, value):
    code, out, err = run_cli(capsys, "search", "--grid", "Q4", "--r", "3", option, value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--grid", "Q4", "--r", "3", "--size-budget", "1.5"],
        ["wsat", "--grid", "3x3"],  # --r missing
        ["wsat", "--grid", "3x3", "--r", "two"],
        ["certify", "--grid", "3x3", "--r", "2", "--format", "xml"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_errors_are_one_stderr_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_size_budget_zero_is_a_budget(capsys):
    code, doc, _ = run_json(capsys, "search", "--grid", "Q4", "--r", "3", "--size-budget", "0")
    assert code == 3
    assert doc["status"] == "budget" and doc["exact_m"] is None


def test_simulate(capsys):
    code, doc, _ = run_json(
        capsys, "simulate", "--grid", "Q3", "--r", "3", "--a0", "1,2,4,7"
    )
    assert code == 0
    assert doc["percolated"] is True
    assert doc["a0"] == [1, 2, 4, 7]
    code, doc, _ = run_json(capsys, "simulate", "--grid", "Q3", "--r", "2", "--a0", "0")
    assert code == 0
    assert doc["percolated"] is False and doc["rounds"] == []


def test_simulate_writes_the_same_text_to_out_and_stdout(tmp_path, capsys):
    from percforge.bootstrap import closure
    from percforge.grid import VertexSet, parse_grid

    spec = parse_grid("Q3")
    doc = closure(spec, VertexSet.from_indices(spec, [1, 2, 4, 7]), 3).to_json_doc()
    out = tmp_path / "trace.json"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--grid", "Q3", "--r", "3", "--a0", "1,2,4,7", "--out", str(out)
    )
    assert code == 0
    assert stdout == out.read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("kind", ["wsat-certificate", "rank-certificate", "witness"])
def test_artifact_files_hold_the_indented_json_text(tmp_path, kind):
    from percforge.cli import _write_json
    from percforge.families import assemble_lower_bound
    from percforge.saturation import build_wsat_grid
    from percforge.witnesses import build_r3

    doc = {
        "wsat-certificate": lambda: build_wsat_grid((3, 4), 2).to_json_doc(),
        "rank-certificate": lambda: assemble_lower_bound((3, 2), 2).to_json_doc(),
        "witness": lambda: build_r3(5).to_json_doc(),
    }[kind]()
    path = tmp_path / "artifact.json"
    _write_json(str(path), doc)
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


# strings json.dumps writes as they are, and strings it escapes: a quote, a
# backslash, control characters, DEL and non-ASCII
_PLAIN_STRINGS = ["0", "-3/7", "12345678901234567890/3", "", "rank-certificate", "a b ~"]
_ESCAPED_STRINGS = ['say "hi"', "back\\slash", "new\nline", "tab\t", "\x7f", "caf\u00e9", "\u2603"]
_INTS = [0, 1, -1, -7, 2**64, 2**64 + 1, -(2**70), 10**30]


def _random_scalar(rng):
    return rng.choice(
        [rng.choice(_INTS), rng.randrange(-5, 50), rng.choice(_PLAIN_STRINGS),
         rng.choice(_ESCAPED_STRINGS), True, False, None, 0.5, -1e300]
    )


def _random_tree(rng, depth=0):
    """Any JSON value: mixed lists (bools and None among ints), nested and
    empty containers, and keys that need escaping."""
    pick = rng.randrange(6 if depth < 3 else 2)
    if pick == 0:
        return _random_scalar(rng)
    if pick == 1:
        return [rng.choice(_INTS) for _ in range(rng.randrange(4))]
    if pick == 2:
        return [rng.choice(_PLAIN_STRINGS + _ESCAPED_STRINGS) for _ in range(rng.randrange(4))]
    if pick == 3:
        return [_random_tree(rng, depth + 1) for _ in range(rng.randrange(4))]
    if pick == 4:
        keys = _PLAIN_STRINGS + _ESCAPED_STRINGS
        return {rng.choice(keys): _random_tree(rng, depth + 1) for _ in range(rng.randrange(4))}
    items = [rng.choice(_INTS) for _ in range(rng.randrange(1, 4))]
    items.insert(rng.randrange(len(items) + 1), rng.choice([True, False, None]))
    return items


def _random_document(rng, kind):
    """A document with the keys and value shapes of one artifact kind, with
    random sizes and values, empty lists included."""

    def ints(n):
        return [rng.choice(_INTS + [rng.randrange(100)]) for _ in range(n)]

    if kind == "rank-certificate":
        w = rng.choice([0, 0, 1, 3])
        entries = ["0", "0", "0", "1", "-2/3", "10000000000000000000000/7"]
        return {
            "kind": kind, "spec": "3x2", "r": rng.randrange(4), "label_mode": "grid",
            "ambient": 4,
            "subspace_basis": [[str(x) for x in ints(4)] for _ in range(rng.randrange(3))],
            "target_dim": w,
            "vectors": [[rng.choice(entries) for _ in range(w)] for _ in range(rng.randrange(5))],
            "rank": w, "pivot_edges": ints(rng.randrange(4)), "wsat_lower": w, "m_lower": 0,
        }
    if kind == "saturation-certificate":
        return {
            "kind": kind, "spec": "Q3", "star_size": rng.randrange(1, 4),
            "base_edges": ints(rng.randrange(5)),
            "additions": [
                {"edge": rng.choice(_INTS), "center": rng.randrange(8),
                 "labels": ints(rng.randrange(3))}
                for _ in range(rng.randrange(4))
            ],
        }
    if kind == "percolating-witness":
        return {
            "kind": kind, "spec": "Q5", "r": 3, "size": rng.randrange(9),
            "vertices": ints(rng.randrange(5)),
            "provenance": rng.choice(_PLAIN_STRINGS + _ESCAPED_STRINGS),
        }
    if kind == "infection-trace":
        return {
            "kind": kind, "spec": "4x4", "r": 2, "a0": ints(rng.randrange(4)),
            "rounds": [ints(rng.randrange(4)) for _ in range(rng.randrange(4))],
            "percolated": rng.choice([True, False]),
        }
    if kind == "search-result":
        return {
            "kind": kind, "spec": "Q4", "r": 3, "exact_m": rng.choice([None, 6]),
            "status": "exact",
            "witness": rng.choice([None, _random_document(rng, "percolating-witness")]),
            "nodes_explored": rng.choice(_INTS),
            "proof_of_optimality": rng.choice([True, False, None]),
            "exhaustion": rng.choice(
                [None, {"k": 5, "group_order": 384, "canonical_sets": rng.choice(_INTS)}]
            ),
            "seed_lower": 2, "seed_basis": rng.choice(["rank-certificate", 'a "quoted" basis']),
        }
    return _random_tree(rng)


_KINDS = ["rank-certificate", "saturation-certificate", "percolating-witness",
          "infection-trace", "search-result", "any"]


def _writer_edge_cases():
    from percforge.families import RankCertificate, build_edge_vectors_grid

    r0 = RankCertificate(build_edge_vectors_grid((3, 2), 0), 0, (), 0, 0).to_json_doc()
    assert r0["target_dim"] == 0 and r0["vectors"] and not any(r0["vectors"])
    return [
        {}, [], {"a": {}, "b": [], "c": [[]], "d": [{}]}, [[], {}, [[]]],
        {"ints": [-1, 0, 2**64, 2**64 + 1, -(2**70)]},
        {"mixed": [1, True, 0, False, None]}, [True], [False, 1], [None, 2], [1, None],
        {"labels": []}, {"additions": [{"edge": 1, "center": 0, "labels": []}]},
        r0,
        {"s": _ESCAPED_STRINGS, "t": ['"', "\\", "\n"], _ESCAPED_STRINGS[0]: "key"},
        ["0", 'x"y'], ["plain", 5], [7, "plain"], {"nested": {"deeper": [["0", "\u00e9"]]}},
        (1, 2), {"tuple": (1, [2, 3])}, {1: "int key"}, {"x": 1.5, "y": float("inf")},
        # lists of records: the template path and every way out of it
        [{"edge": 3, "center": 1, "labels": [0, 2]}],
        [{"edge": e, "center": -e, "labels": [e, 2**64 + e, 0]} for e in range(2500)],
        [{"a": 1, "b": True}, {"a": 2, "b": False}], [{"a": 1}, {"a": True}],
        [{"a": 1, "b": None}], [{"a": 1, "b": 1.5}], [{"a": 1, "b": "s"}],
        [{"a": 1, "l": [1, True]}], [{"a": 1, "l": [1, None]}], [{"a": 1, "l": (1, 2)}],
        [{"a": 1, "l": [[1]]}], [{"a": 1, "l": ["1"]}],
        [{"a": 1, "b": 2}, {"b": 3, "a": 4}], [{"a": 1}, {"a": 2, "b": 3}],
        [{"a": 1, "b": 2}, {"a": 3}], [{"a": 1}, {}], [{}, {"a": 1}], [{1: 2}],
        [{'k"é\\': 1, "x": [2, 3]}, {'k"é\\': 4, "x": [5, 6]}],
        [{"100%": 1, "%d": [2, 3], "%%s": []}, {"100%": 4, "%d": [5, 6], "%%s": []}],
        [{"edge": 1, "labels": []}, {"edge": 2, "labels": [3, 4]}],
        [{"edge": 1, "labels": [3]}, {"edge": 2, "labels": [3, 4]}],
        [{"e": 1, "l": []}, {"e": 2, "l": []}], [{"l": []}, {"l": []}],
        {"a": {"b": [{"edge": 1, "labels": [2]}, {"edge": 3, "labels": [4]}]}},
        [[{"edge": 1, "labels": [2]}], [{"edge": 3, "labels": []}]],
    ]


def test_writer_text_equals_json_dumps_indent_2(tmp_path):
    import random

    from percforge.cli import _json_text, _write_json

    rng = random.Random(20261020)
    docs = _writer_edge_cases()
    docs += [_random_document(rng, kind) for kind in _KINDS for _ in range(150)]
    path = tmp_path / "doc.json"
    for doc in docs:
        expected = json.dumps(doc, indent=2) + "\n"
        assert _json_text(doc) == expected, doc
        _write_json(str(path), doc)
        assert path.read_text() == expected, doc


@pytest.mark.parametrize(
    "argv",
    [
        ["wsat-build", "--grid", "Q2", "--r", "2"],
        ["certify", "--grid", "Q2", "--r", "2"],
        ["construct", "--grid", "Q3", "--r", "3"],
        ["simulate", "--grid", "Q2", "--r", "2", "--a0", "0,3"],
        ["simulate", "--grid", "Q2", "--r", "2", "--a0", "0,3", "--format", "table"],
    ],
)
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, argv, where):
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["5:3", "a:b", "3", "1:2:3"])
def test_bad_d_range_exits_2_naming_the_option(capsys, text):
    code, stdout, err = run_cli(capsys, "bound", "--r", "3", "--d-range", text)
    assert code == 2 and stdout == ""
    assert err.startswith("error: --d-range ") and err.count("\n") == 1


def test_output_byte_stability(capsys):
    code1, out1, _ = run_cli(capsys, "certify", "--grid", "Q3", "--r", "2")
    code2, out2, _ = run_cli(capsys, "certify", "--grid", "Q3", "--r", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    code1, out1, _ = run_cli(capsys, "search", "--grid", "Q3", "--r", "2")
    code2, out2, _ = run_cli(capsys, "search", "--grid", "Q3", "--r", "2")
    assert out1 == out2


def test_table_format_is_derived_view(capsys):
    code, out, _ = run_cli(capsys, "wsat", "--grid", "3x3", "--r", "2", "--format", "table")
    assert code == 0
    assert "recurrence" in out and "6" in out


def _zero_denominator(doc):
    doc["vectors"][0][0] = "1/0"


def _null_entry(doc):
    doc["vectors"][0][0] = None


def _short_vector(doc):
    doc["vectors"][0] = doc["vectors"][0][:-1]


def _short_basis_row(doc):
    doc["subspace_basis"][0] = doc["subspace_basis"][0][:-1]


def _r_zero(doc):
    doc["r"] = 0


def _r_above_labels(doc):
    doc["r"] = 7  # Q3 has 6 labels


def _label_mode_direction(doc):
    doc["label_mode"] = "direction"  # a retired convention, even on a hypercube


def _label_mode_x(doc):
    doc["label_mode"] = "x"


@pytest.mark.parametrize(
    "corrupt",
    [
        _zero_denominator,
        _null_entry,
        _short_vector,
        _short_basis_row,
        _r_zero,
        _r_above_labels,
        _label_mode_direction,
        _label_mode_x,
    ],
)
def test_recheck_rejects_malformed_certificate(tmp_path, capsys, corrupt):
    out = tmp_path / "rank.json"
    assert main(["certify", "--grid", "Q3", "--r", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    corrupt(doc)
    out.write_text(json.dumps(doc))
    code, stdout, err = run_cli(capsys, "recheck", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: malformed rank certificate: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_recheck_internal_error_is_not_a_failed_verification(tmp_path, monkeypatch):
    import percforge.cli as cli

    out = tmp_path / "rank.json"
    assert main(["certify", "--grid", "Q3", "--r", "2", "--out", str(out)]) == 0

    def broken(cert):
        raise RuntimeError("internal bug")

    monkeypatch.setattr(cli, "recheck_rank_certificate", broken)
    with pytest.raises(RuntimeError):
        main(["recheck", str(out)])

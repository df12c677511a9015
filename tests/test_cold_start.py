"""Commands that run no search must not pay for importing numpy: it is
loaded on the first touch of a search kernel, while `percforge.search`
itself is imported with the package (the bench tracer wraps only modules
that are already imported)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import percforge
from percforge.cli import main

WITNESS = Path(__file__).parent / "fixtures" / "witness_q5_r3.json"

SCRIPT = """
import contextlib, io, json, sys
from percforge.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

codes = [run("wsat", "--grid", "3x3", "--r", "2")[0],
         run("certify", "--grid", "3x3", "--r", "2")[0],
         run("check", sys.argv[1])[0]]
before = numpy_modules()
search_imported = "percforge.search" in sys.modules
search = run("search", "--grid", "Q3", "--r", "2")

import percforge
missing = [name for name in percforge.__all__ if not hasattr(percforge, name)]
print(json.dumps({
    "codes": codes, "before": before, "search_imported": search_imported,
    "search": search, "after": len(numpy_modules()),
    "exact_min": percforge.exact_min.__module__, "missing": missing,
}))
"""


def test_commands_without_a_search_do_not_load_numpy(capsys):
    src = str(Path(percforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(WITNESS)],
        capture_output=True, text=True, env=env, check=True,
    )
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0]
    assert got["before"] == []
    assert got["search_imported"]
    # the search loads numpy and prints what an in-process run prints
    assert got["after"] > 0
    code = main(["search", "--grid", "Q3", "--r", "2"])
    assert got["search"] == [code, capsys.readouterr().out]
    assert got["exact_min"] == "percforge.search"
    assert got["missing"] == []

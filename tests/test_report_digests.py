"""Golden reports of command line runs: reports stay byte-identical.

Each case runs `cli.main` in-process and compares its exit code, stdout
and stderr with the case's file in `golden/`.  A structured case stores
its stdout as the parsed report and is checked twice: field by field,
so a failure names the dotted path of each field that moved, and byte
for byte against `render_structured` of the golden, so key order still
counts.  A text case with a structured twin stores nothing: it must
print `render_text` of the twin's golden report, with the twin's exit
code and stderr.  A mismatch means a report byte changed, which ROADMAP
calls a bug unless the change is deliberate.  To regenerate the goldens
after a deliberate report change (and justify that change where it is
recorded), run from the repo root

    PYTHONPATH=src python tests/test_report_digests.py

`E6_EXPORT_SHA256` pins the `--export-matrix` file; it is the sha256sum
of the file `analyze --preset E6 --export-matrix PATH` writes.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tautcheck.cli import main, render_structured, render_text
from tautcheck.graph import preset_graph

from graph_writer import graph_text

GOLDEN = Path(__file__).with_name("golden")
E6_EXPORT_SHA256 = \
    "f8fa473f136781fd1549623fb17fc499c9cbe8e4169b73a03617cd4292ad6b5b"

# graph file placeholders in a case's argv -> the file's text
GRAPHS = {
    "{valence4}": "vertex c genus=0 selfint=-3\n" + "".join(
        f"vertex l{k} genus=0 selfint=-2\nedge c l{k}\n" for k in range(1, 5)),
    "{d4}": graph_text(preset_graph("D4")[0]),
}


def _cases() -> tuple[dict[str, list[str]], dict[str, str]]:
    """Case name -> argv, and text case -> its structured twin."""
    cases, twins = {}, {}
    for name in ("A1", "A2", "A3", "A4", "A5", "A6",
                 "D4", "D5", "D6", "D7", "E6"):
        for fmt in ("text", "structured"):
            cases[f"{name} {fmt}"] = ["analyze", "--preset", name,
                                      "--format", fmt]
        twins[f"{name} text"] = f"{name} structured"
    cases["E7 structured"] = ["analyze", "--preset", "E7",
                              "--format", "structured"]
    cases["D4 graph structured"] = ["analyze", "--graph", "{d4}",
                                    "--format", "structured"]
    cases["valence-4 graph"] = ["analyze", "--graph", "{valence4}"]
    cases["unknown preset D3"] = ["analyze", "--preset", "D3"]
    cases["unknown preset E5"] = ["analyze", "--preset", "E5"]
    cases["empty chain A0"] = ["analyze", "--preset", "A0"]
    cases["spelled a_01"] = ["analyze", "--preset", "a_01"]
    return cases, twins


CASES, TWINS = _cases()


def _golden_path(name: str) -> Path:
    return GOLDEN / f"{name.replace(' ', '_')}.json"


def _run(argv: list[str], graph_dir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `main(argv)`, with each graph
    placeholder written to a file in `graph_dir`."""
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg in GRAPHS:
            path = graph_dir / f"{arg.strip('{}')}.txt"
            path.write_text(GRAPHS[arg])
            argv[i] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _fields(value, path: str = "") -> dict:
    """The leaves of a report by dotted path, so that a mismatch names
    the field."""
    if not isinstance(value, dict):
        return {path: value}
    return {leaf: v for key, sub in value.items()
            for leaf, v in _fields(sub, f"{path}.{key}" if path else key)
            .items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, tmp_path):
    code, out, err = _run(CASES[name], tmp_path)
    golden = json.loads(_golden_path(TWINS.get(name, name)).read_text())
    stdout = golden["stdout"]
    if name in TWINS:
        stdout = render_text(stdout)
    elif isinstance(stdout, dict):
        assert _fields(json.loads(out)) == _fields(stdout)
        stdout = render_structured(stdout)
    assert (code, err) == (golden["exit"], golden["stderr"])
    assert out == stdout


def test_every_golden_has_a_case():
    """A case without a golden, or a golden without a case, fails."""
    assert {p.name for p in GOLDEN.iterdir()} == \
        {_golden_path(name).name for name in CASES if name not in TWINS}


def test_exported_matrix_digest(tmp_path):
    """The text format, byte for byte, on the 123,280 entries of E6."""
    path = tmp_path / "e6.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--preset", "E6", "--export-matrix",
                     str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == E6_EXPORT_SHA256


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CASES.items()):
            if name in TWINS:
                continue
            code, out, err = _run(argv, Path(tmp))
            stdout = json.loads(out) if "structured" in argv else out
            _golden_path(name).write_text(json.dumps(
                {"exit": code, "stderr": err, "stdout": stdout},
                indent=2) + "\n")
    sys.stdout.write(f"wrote {len(CASES) - len(TWINS)} goldens to "
                     f"{GOLDEN}\n")

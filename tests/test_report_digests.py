"""Golden digests of command line runs: reports stay byte-identical.

Each case runs `cli.main` in-process and compares the sha256 of its exit
code, stdout and stderr with `report_digests.json`.  A mismatch means a
report byte changed, which ROADMAP calls a bug unless the change is
deliberate.  To regenerate the file after a deliberate report change
(and justify that change where it is recorded), run from the repo root

    PYTHONPATH=src python tests/test_report_digests.py

`E6_EXPORT_SHA256` pins the `--export-matrix` file the same way; it is
the sha256sum of the file `analyze --preset E6 --export-matrix PATH`
writes.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tautcheck.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")
E6_EXPORT_SHA256 = \
    "f8fa473f136781fd1549623fb17fc499c9cbe8e4169b73a03617cd4292ad6b5b"

VALENCE4 = "vertex c genus=0 selfint=-3\n" + "".join(
    f"vertex l{k} genus=0 selfint=-2\nedge c l{k}\n" for k in range(1, 5))


def _cases() -> dict[str, list[str]]:
    """Case name -> argv; "{valence4}" stands for a graph file path."""
    cases = {}
    for name in ("A1", "A2", "A3", "A4", "A5", "A6",
                 "D4", "D5", "D6", "D7", "E6"):
        for fmt in ("text", "structured"):
            cases[f"{name} {fmt}"] = ["analyze", "--preset", name,
                                      "--format", fmt]
    cases["E7 structured"] = ["analyze", "--preset", "E7",
                              "--format", "structured"]
    cases["valence-4 graph"] = ["analyze", "--graph", "{valence4}"]
    cases["unknown preset D8"] = ["analyze", "--preset", "D8"]
    cases["unknown preset E5"] = ["analyze", "--preset", "E5"]
    cases["empty chain A0"] = ["analyze", "--preset", "A0"]
    cases["spelled a_01"] = ["analyze", "--preset", "a_01"]
    return cases


CASES = _cases()


def _digest(argv: list[str], graph_dir: Path) -> str:
    path = graph_dir / "valence4.txt"
    path.write_text(VALENCE4)
    argv = [str(path) if a == "{valence4}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert set(expected) == set(CASES)
    assert _digest(CASES[name], tmp_path) == expected[name]


def test_exported_matrix_digest(tmp_path):
    """The text format, byte for byte, on the 123,280 entries of E6."""
    path = tmp_path / "e6.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--preset", "E6", "--export-matrix",
                     str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == E6_EXPORT_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: _digest(argv, Path(tmp))
                 for name, argv in sorted(CASES.items())}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(table)} digests to {DIGESTS}\n")

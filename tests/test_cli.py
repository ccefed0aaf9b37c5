"""End-to-end pipeline (analyze) and command line behavior.

Covers report content, refusal paths, exit codes, export, determinism,
and invariance of the results under relabeling of the input graph.
"""

import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tautcheck
import tautcheck.cli as cli
import tautcheck.linalg as linalg
from tautcheck import __version__
from tautcheck.cli import analyze, main, render_text
from tautcheck.cycles import CyclesError
from tautcheck.graph import parse_graph, preset_graph, serialize_graph
from tautcheck.linalg import LinalgError, rank_mod_p, sample_rank_primes
from tautcheck.plumbing import PlumbingError, build_model
from tautcheck.sparse import read_matrix_text

STAR_H1 = {"q": 0, "p2": 1, "p3": 0, "p5": 0, "p7": 0}
STAR_RANK = {"q": 660, "p2": 659, "p3": 660, "p5": 660, "p7": 660}


# ---------------------------------------------------------------------------
# analyze(): report content


def test_analyze_requires_exactly_one_source():
    with pytest.raises(ValueError):
        analyze()
    g = parse_graph("vertex a genus=0 selfint=-2\n")
    with pytest.raises(ValueError):
        analyze(graph=g, preset="A1")


def test_analyze_star_report_values():
    r = analyze(preset="D4")
    assert r["status"] == "ok"
    assert r["version"] == __version__
    assert r["graph"] == {"preset": "D4", "vertices": 4, "edges": 3,
                          "ids": ["d1", "d2", "d3", "d4"]}
    assert r["checks"] == {"connected": True, "negative_definite": True,
                           "potentially_taut": True}
    assert r["cycles"]["fundamental"] == [1, 1, 2, 1]
    assert r["cycles"]["used"] == [3, 3, 5, 3]
    assert r["cycles"]["source"] == "preset"
    assert r["cycles"]["coprime_adjusted"] is False
    plan = r["plan"]
    assert (plan["lambda_bound"], plan["tau"], plan["nu"], plan["j"]) == \
        (0, 1, 2, 11)
    assert plan["mode"] == "paper"
    model = r["model"]
    assert (model["points"], model["rows"], model["columns"]) == (3, 660, 720)
    assert set(r["results"]) == {"q", "p2", "p3", "p5", "p7"}
    for key, res in r["results"].items():
        assert res["rank"] == STAR_RANK[key]
        assert res["h1"] == STAR_H1[key]
    assert r["bad_primes"] == [2]
    assert r["certified"] is True
    assert r["certificate_prime"] == 3
    assert r["notes"] == []
    assert r["sampled_rank_primes"] == sample_rank_primes(3)


def test_analyze_star_conjectural_fields():
    r = analyze(preset="D4")
    bad = r["results"]["p2"]
    assert bad["taut"] is False
    assert bad["conjectural"] is True
    assert bad["isomorphism_classes"] == 2
    assert "conjecturally 2 isomorphism classes" in bad["verdict"]
    for key in ("q", "p3", "p5", "p7"):
        res = r["results"][key]
        assert res["verdict"] == "taut"
        assert res["taut"] is True
        assert "conjectural" not in res
        assert "isomorphism_classes" not in res


def test_analyze_single_vertex_taut_everywhere():
    r = analyze(preset="A1")
    assert r["status"] == "ok"
    assert r["model"]["rows"] == 0
    assert r["model"]["columns"] == 0
    for res in r["results"].values():
        assert res == {"rank": 0, "h1": 0, "taut": True, "verdict": "taut"}
    assert r["bad_primes"] == []
    assert r["certified"] is True       # rank 0 = min(0, 0) at any prime
    assert r["certificate_prime"] == 2


def test_analyze_computed_cycle_postconditions():
    g, _ = __import__("tautcheck.graph", fromlist=["preset_graph"]) \
        .preset_graph("A3")
    r = analyze(graph=g)
    assert r["graph"]["preset"] is None
    c = r["cycles"]
    assert c["source"] == "computed"
    used = c["used"]
    m = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    for i in range(3):
        assert sum(m[i][k] * used[k] for k in range(3)) < 0
    for coeff in used:
        assert math.gcd(coeff, 2 * 3 * 5 * 7) == 1


def test_analyze_strict_mode_plan():
    r = analyze(preset="D4", primes=[2, 3], mode="strict")
    assert r["status"] == "ok"
    plan = r["plan"]
    assert plan["mode"] == "strict"
    assert plan["nu"] == 5          # smallest multiplier >= 2 coprime to 6
    assert plan["j"] == 29          # next prime after nu * max coefficient
    assert set(r["results"]) == {"q", "p2", "p3"}


def test_analyze_unknown_mode_rejected():
    # it used to run as strict and report status "ok"
    with pytest.raises(CyclesError):
        analyze(preset="D4", mode="fast")


def test_analyze_j_override_notes_and_rows():
    r = analyze(preset="D4", j=13)
    assert r["plan"]["j"] == 13
    assert r["model"]["rows"] == 2 * 3 * (13 * 13 - 13)
    assert len(r["notes"]) == 1
    assert "13" in r["notes"][0] and "11" in r["notes"][0]


def test_analyze_j_override_equal_to_auto_is_silent():
    assert analyze(preset="D4", j=11) == analyze(preset="D4")


def test_analyze_non_integral_j_rejected():
    """A j that is not an integer is refused, not truncated to 11."""
    for bad in (11.7, 11.0, "11"):
        with pytest.raises(ValueError, match=re.escape(
                f"multiplicity j = {bad!r} is not an integer")):
            analyze(preset="D4", j=bad)
    assert analyze(preset="D4", j=np.int64(11)) == analyze(preset="D4")


def test_analyze_custom_primes():
    r = analyze(preset="D4", primes=[3, 2])
    assert set(r["results"]) == {"q", "p2", "p3"}
    assert r["bad_primes"] == [2]


def test_analyze_empty_primes_rejected():
    with pytest.raises(ValueError):
        analyze(preset="D4", primes=[])


def test_analyze_non_integral_primes_rejected():
    """A candidate that is not an integer is refused, not truncated."""
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=re.escape(
                f"candidate characteristic {bad!r} is not an integer")):
            analyze(preset="D4", primes=[bad, 3])
    r = analyze(preset="A2", primes=[np.int64(3), 2], j=5)
    assert list(r["results"]) == ["q", "p2", "p3"]


def test_analyze_certified_small_model():
    r = analyze(preset="A2", primes=[2, 3, 7], j=5)
    assert r["certified"] is True
    assert r["certificate_prime"] == 2
    assert r["model"]["rows"] == 40
    assert r["results"]["q"]["rank"] == 40
    for res in r["results"].values():
        assert res["h1"] == 0


def _count_rank_calls(monkeypatch, rank=rank_mod_p):
    """Route every modular rank through `rank`, recording the primes."""
    calls = []

    def counted(matrix, p):
        calls.append(p)
        return rank(matrix, p)
    monkeypatch.setattr(linalg, "rank_mod_p", counted)
    return calls


def test_analyze_ranks_only_candidates_when_one_proves(monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    r = analyze(preset="D4")
    assert sorted(calls) == [2, 3, 5, 7]
    assert r["certificate_prime"] == 3
    assert r["sampled_rank_primes"] == sample_rank_primes(3)


def test_analyze_unproved_rank_is_reported_as_lower_bound(monkeypatch):
    calls = _count_rank_calls(
        monkeypatch, lambda m, p: min(m.nrows, m.ncols) - 1)
    r = analyze(preset="D4")
    assert sorted(calls[:4]) == [2, 3, 5, 7]
    assert calls[4:] == sample_rank_primes(3)
    assert r["certified"] is False
    assert r["certificate_prime"] is None
    assert r["results"]["q"]["rank"] == 659
    assert "rational rank is a lower bound" in render_text(r)


def test_analyze_impossible_rank_fails_internal_check(monkeypatch):
    monkeypatch.setattr(linalg, "rank_mod_p", lambda m, p: m.nrows + 1)
    with pytest.raises(LinalgError, match="internal check failed"):
        analyze(preset="D4")
    assert main(["analyze", "--preset", "D4"]) == 1


def test_analyze_mem_cap_refusal():
    r = analyze(preset="D4", mem_cap=1000)
    assert r["status"] == "refused"
    assert r["stage"] == "assembly"
    assert any("memory cap" in s for s in r["reasons"])
    assert "results" not in r


def test_analyze_default_mem_cap_is_physical_memory(monkeypatch):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1000)
    r = analyze(preset="D4")
    assert (r["status"], r["stage"]) == ("refused", "assembly")
    assert any("memory cap 1000" in s for s in r["reasons"])
    assert analyze(preset="D4", mem_cap=10**12)["status"] == "ok"
    monkeypatch.setattr(cli, "_physical_memory", lambda: None)
    assert analyze(preset="D4")["status"] == "ok"


def test_estimate_out_of_memory_is_refused_at_assembly(monkeypatch, capsys):
    """The estimate running out of memory is a refusal, not a traceback."""
    def exhausted(model):
        raise MemoryError
    monkeypatch.setattr(cli, "estimate_assembly", exhausted)
    r = analyze(preset="D4")
    assert (r["status"], r["stage"]) == ("refused", "assembly")
    assert r["reasons"] == [
        "estimating the assembly footprint ran out of memory"]
    code, out, err = _run(capsys, ["analyze", "--preset", "D4"])
    assert code == 2 and err == ""
    assert "status: refused at stage 'assembly'" in out


# ---------------------------------------------------------------------------
# analyze(): refusals from graph checks

REFUSED_GRAPHS = {
    "positive_genus": "vertex a genus=1 selfint=-2\n",
    "high_valence": "vertex c genus=0 selfint=-5\n" + "".join(
        f"vertex l{k} genus=0 selfint=-2\nedge c l{k}\n" for k in range(4)),
    "disconnected": ("vertex a genus=0 selfint=-2\n"
                     "vertex b genus=0 selfint=-2\n"),
    "not_negative_definite": ("vertex a genus=0 selfint=-2\n"
                              "vertex b genus=0 selfint=-2\n"
                              "edge a b\nedge a b\n"),
}


def test_refusal_positive_genus():
    g = parse_graph(REFUSED_GRAPHS["positive_genus"])
    r = analyze(graph=g)
    assert r["status"] == "refused"
    assert r["stage"] == "graph-checks"
    assert any("genus" in s for s in r["reasons"])


def test_refusal_high_valence():
    r = analyze(graph=parse_graph(REFUSED_GRAPHS["high_valence"]))
    assert r["status"] == "refused"
    assert any("valence 4" in s for s in r["reasons"])


def test_refusal_disconnected():
    g = parse_graph(REFUSED_GRAPHS["disconnected"])
    r = analyze(graph=g)
    assert r["status"] == "refused"
    assert any("not connected" in s for s in r["reasons"])


def test_refusal_potentially_taut_but_not_negative_definite():
    g = parse_graph(REFUSED_GRAPHS["not_negative_definite"])
    r = analyze(graph=g)
    assert r["status"] == "refused"
    assert any("negative definite" in s for s in r["reasons"])
    text = render_text(r)
    assert "refused" in text and "negative definite" in text


@pytest.mark.parametrize("name", sorted(REFUSED_GRAPHS))
def test_build_model_refuses_with_the_graph_check_reasons(name):
    g = parse_graph(REFUSED_GRAPHS[name])
    reasons = analyze(graph=g)["reasons"]
    with pytest.raises(PlumbingError) as exc:
        build_model(g, 11, [2, 3, 5, 7])
    assert str(exc.value) == "; ".join(reasons)


# ---------------------------------------------------------------------------
# command line: exit codes and output


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_text_report(capsys):
    code, out, err = _run(capsys, ["analyze", "--preset", "D4"])
    assert code == 0
    assert err == ""
    assert out.startswith("tautcheck ")
    assert "bad primes: 2" in out
    assert "rational rank proved: full rank mod 3" in out
    assert "659" in out
    assert "conjecturally 2 isomorphism classes" in out


def test_main_structured_report(capsys):
    code, out, _ = _run(capsys, ["analyze", "--preset", "D4",
                                 "--format", "structured"])
    assert code == 0
    r = json.loads(out)
    assert r["results"]["p2"]["h1"] == 1
    assert r["results"]["p2"]["conjectural"] is True
    assert r["bad_primes"] == [2]


def test_main_refusal_exit_code(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("vertex a genus=1 selfint=-2\n")
    code, out, _ = _run(capsys, ["analyze", "--graph", str(path)])
    assert code == 2
    assert "refused" in out


def test_main_unknown_preset_errors(capsys):
    code, out, err = _run(capsys, ["analyze", "--preset", "Q7"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_star_import_binds_exactly_all():
    """`from tautcheck import *` binds `__all__`, which names every
    public non-module name of the package once."""
    names = {}
    exec("from tautcheck import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(tautcheck.__all__)
    public = {k for k, v in vars(tautcheck).items()
              if not k.startswith("_") and not inspect.ismodule(v)}
    assert public == set(names)


def test_main_missing_file_errors(capsys):
    code, _, err = _run(capsys, ["analyze", "--graph", "/no/such/file"])
    assert code == 1
    assert err.startswith("error:")


def test_main_malformed_graph_file_errors(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("vertex a genus=0\n")
    code, _, err = _run(capsys, ["analyze", "--graph", str(path)])
    assert code == 1
    assert err.startswith("error:")


def test_main_bad_primes_argument_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--preset", "D4", "--primes", "2,x"])
    assert exc.value.code == 2


def test_main_non_prime_candidate_errors_at_once(tmp_path):
    """Rejected before the cycles stage: on a graph file the coprime
    repair of the computed cycle used to hang on a candidate 0, and a
    prime of 2^31 or more reached assembly with j above 2^31."""
    path = tmp_path / "d4.txt"
    path.write_text(serialize_graph(preset_graph("D4")[0]))
    env = {**os.environ,
           "PYTHONPATH": str(Path(tautcheck.__file__).resolve().parents[1])}
    for primes, why in (("0", "is not prime"), ("2,4", "is not prime"),
                        ("2147483659", "is not below 2^31")):
        proc = subprocess.run(
            [sys.executable, "-m", "tautcheck.cli", "analyze", "--graph",
             str(path), f"--primes={primes}"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, primes
        assert proc.stdout == ""
        assert why in proc.stderr


def test_main_mem_cap_flag(capsys):
    code, out, _ = _run(capsys, ["analyze", "--preset", "D4",
                                 "--mem-cap", "1000"])
    assert code == 2
    assert "memory cap" in out


# ---------------------------------------------------------------------------
# command line: export


def test_main_export_star(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code, _, _ = _run(capsys, ["analyze", "--preset", "D4",
                               "--export-matrix", str(path)])
    assert code == 0
    with open(path) as f:
        assert f.readline().strip() == "660 720 M"
    assert rank_mod_p(read_matrix_text(str(path)), 2) == 659


def test_main_export_single_vertex(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code, _, _ = _run(capsys, ["analyze", "--preset", "A1",
                               "--export-matrix", str(path)])
    assert code == 0
    assert path.read_text() == "0 0 M\n0 0 0\n"


def test_main_export_bad_path_errors(capsys):
    code, _, err = _run(capsys, ["analyze", "--preset", "A1",
                                 "--export-matrix", "/no/such/dir/m.txt"])
    assert code == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# determinism and invariance


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_main_byte_identical_reruns(fmt, capsys):
    _, out1, _ = _run(capsys, ["analyze", "--preset", "D4", "--format", fmt])
    _, out2, _ = _run(capsys, ["analyze", "--preset", "D4", "--format", fmt])
    assert out1 == out2


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_main_explicit_j_byte_identical_to_auto(fmt, capsys):
    _, auto, _ = _run(capsys, ["analyze", "--preset", "D4", "--format", fmt])
    _, fixed, _ = _run(capsys, ["analyze", "--preset", "D4", "--j", "11",
                                "--format", fmt])
    assert auto == fixed


def test_vertex_relabeling_invariance_via_files(tmp_path, capsys):
    center_first = ("vertex c genus=0 selfint=-2\n"
                    "vertex x genus=0 selfint=-2\n"
                    "vertex y genus=0 selfint=-2\n"
                    "vertex z genus=0 selfint=-2\n"
                    "edge c x\nedge c y\nedge c z\n")
    leaves_first = ("vertex x genus=0 selfint=-2\n"
                    "vertex y genus=0 selfint=-2\n"
                    "vertex z genus=0 selfint=-2\n"
                    "vertex c genus=0 selfint=-2\n"
                    "edge c x\nedge c y\nedge c z\n")
    reports = []
    for text in (center_first, leaves_first):
        path = tmp_path / f"g{len(reports)}.txt"
        path.write_text(text)
        # the window override keeps the two runs comparable and small; the
        # computed plan cycle would otherwise push j to ~107
        code, out, _ = _run(capsys, ["analyze", "--graph", str(path),
                                     "--j", "11", "--format", "structured"])
        assert code == 0
        reports.append(json.loads(out))
    a, b = reports
    assert a["results"] == b["results"]
    assert a["bad_primes"] == b["bad_primes"]
    assert a["model"]["rows"] == b["model"]["rows"]
    assert a["graph"]["ids"] != b["graph"]["ids"]


def test_serialize_parse_round_trip_keeps_report(tmp_path, capsys):
    from tautcheck.graph import preset_graph
    g, _ = preset_graph("A3")
    path = tmp_path / "a3.txt"
    path.write_text(serialize_graph(g))
    code, out, _ = _run(capsys, ["analyze", "--graph", str(path),
                                 "--format", "structured"])
    assert code == 0
    r_file = json.loads(out)
    r_lib = analyze(graph=g)
    assert r_file["results"] == r_lib["results"]


# ---------------------------------------------------------------------------
# footprint announcement


def test_no_footprint_note_for_small_runs(capsys):
    code, _, err = _run(capsys, ["analyze", "--preset", "D4"])
    assert code == 0
    assert err == ""


def test_footprint_note_above_threshold(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_FOOTPRINT_NOTE_BYTES", 0)
    code, _, err = _run(capsys, ["analyze", "--preset", "D4"])
    assert code == 0
    assert "estimated peak" in err
    assert "660" in err


# ---------------------------------------------------------------------------
# README

_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(after: str, lang: str = "") -> str:
    """The first fenced block in README.md after the text `after`."""
    text = _README.read_text()
    opening = "```" + lang + "\n"
    start = text.index(opening, text.index(after)) + len(opening)
    return text[start:text.index("```\n", start)]


def test_readme_d4_report_is_current():
    assert (_readme_block("`analyze --preset D4` prints:")
            == render_text(analyze(preset="D4")))


def test_readme_library_snippet_runs():
    """Runs the README's library example; every bare expression in it
    must equal the value its comment states."""
    code = _readme_block("## Library use", "python")
    lines = code.splitlines()
    ns: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        src = ast.get_source_segment(code, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(src, ns)
            continue
        comment = lines[stmt.lineno - 1].split("#", 1)[1]
        expected = ast.literal_eval(comment.split(":")[-1].strip())
        assert eval(src, ns) == expected, src
        checked.append(expected)
    assert checked == [(1, 1, 2, 1), 659, (660, 3), [2]]

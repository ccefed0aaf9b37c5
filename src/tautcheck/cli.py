"""End-to-end analysis pipeline and the command line interface.

The pipeline: combinatorial checks, cycle computation (a preset's cycle
is used untouched; other cycles are coprimality-adjusted against the
candidate primes), twist plan, plumbing model, matrix
assembly, exact ranks per characteristic with the rational rank proved
from them where possible, verdicts.

Reports are deterministic byte for byte: fixed RNG seed for the rank
primes, no timestamps, canonical key order.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, linalg
from .cycles import (anti_ample_cycle, choose_j, fundamental_cycle,
                     is_anti_ample, make_coprime_to_all,
                     significant_multiplicity_to_all)
from .graph import (DualGraph, admissibility_violations, parse_graph,
                    preset_graph, preset_name)
from .linalg import LinalgError, is_int, prove_rank_over_Q
from .plumbing import assemble_matrix, build_model, estimate_assembly
from .sparse import write_matrix_text

DEFAULT_PRIMES = (2, 3, 5, 7)

# assemblies above this estimated peak announce themselves on stderr first
_FOOTPRINT_NOTE_BYTES = 100_000_000


def _check(ok: bool, what: str) -> None:
    """An invariant behind a reported value; unlike `assert`, it also
    holds under `python -O`."""
    if not ok:
        raise LinalgError(f"internal check failed: {what}")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _refusal(base: dict, stage: str, reasons: list[str]) -> dict:
    report = dict(base)
    report["status"] = "refused"
    report["stage"] = stage
    report["reasons"] = reasons
    return report


def _characteristic_result(r_rows: int, rank: int) -> dict:
    h1 = r_rows - rank
    out = {"rank": rank, "h1": h1, "taut": h1 == 0}
    if h1 == 0:
        out["verdict"] = "taut"
    else:
        out["verdict"] = (f"not combinatorially rigid; conjecturally "
                          f"{1 + h1} isomorphism classes")
        out["conjectural"] = True
        out["isomorphism_classes"] = 1 + h1
    return out


def analyze(graph: DualGraph | None = None, *, preset: str | None = None,
            primes=DEFAULT_PRIMES, j: int | None = None,
            mem_cap: int | None = None,
            export_path: str | None = None) -> dict:
    """Run the full tautness analysis; returns the report dict.

    Exactly one of `graph` (a DualGraph) and `preset` (a name) must be
    given.  An input whose estimated assembly footprint exceeds `mem_cap`
    bytes (by default the physical memory) is refused before assembly.
    A `j` the model cannot use raises PlumbingError.
    """
    if (graph is None) == (preset is None):
        raise ValueError("pass exactly one of graph= or preset=")
    label = None if preset is None else preset_name(preset)
    g, preset_cycle = (graph, None) if label is None else preset_graph(label)
    primes = list(primes)
    for p in primes:                 # refused, not truncated by int()
        if not is_int(p):
            raise ValueError(f"candidate characteristic {p!r} is not an "
                             f"integer")
    if j is not None and not is_int(j):
        raise ValueError(f"multiplicity j = {j!r} is not an integer")
    if mem_cap is not None and not (is_int(mem_cap) and mem_cap >= 0):
        raise ValueError(f"memory cap {mem_cap!r} is not a non-negative "
                         f"integer")
    primes = sorted({int(p) for p in primes})
    if not primes:
        raise ValueError("need at least one candidate prime")
    for p in primes:
        if not linalg.is_valid_modulus(p):
            why = ("is not below 2^31" if linalg.is_probable_prime(p)
                   else "is not prime")
            raise ValueError(f"candidate characteristic {p} {why}")
    base = {"tool": "tautcheck", "version": __version__,
            "graph": {"preset": label,
                      "edges": len(g.edges), "ids": list(g.ids)}}

    # stage: combinatorial checks
    reasons = admissibility_violations(g)
    if reasons:
        return _refusal(base, "graph-checks", reasons)

    # stage: cycles
    fundamental = fundamental_cycle(g)
    if preset_cycle is not None:
        used = tuple(preset_cycle)
        _check(is_anti_ample(g, used), "preset cycle is not anti-ample")
        source = "preset"
        adjusted = False
    else:
        z0 = anti_ample_cycle(g)
        used = make_coprime_to_all(g, z0, primes)
        source = "computed"
        adjusted = used != z0

    # stage: twist plan
    plan = significant_multiplicity_to_all(g, used, primes)
    j_auto = choose_j(plan.nu, max(used), primes)
    j_used = j_auto if j is None else int(j)
    notes: list[str] = []
    if j is not None and j_used != j_auto:
        notes.append(f"j overridden to {j_used}; automatic choice would be "
                     f"{j_auto}")

    # stage: plumbing model
    model = build_model(g, j_used, primes)

    est = estimate_assembly(model)
    if mem_cap is None:
        mem_cap = _physical_memory()
    if mem_cap is not None and est["assembly_peak_bytes"] > mem_cap:
        return _refusal(base, "assembly", [
            f"estimated assembly footprint {est['assembly_peak_bytes']} "
            f"bytes exceeds the memory cap {mem_cap}"])
    if est["assembly_peak_bytes"] >= _FOOTPRINT_NOTE_BYTES:
        sys.stderr.write(
            f"assembling {model.row_count} x {est['candidate_columns']} "
            f"window matrix: ~{est['nnz']} entries, estimated peak "
            f"{est['assembly_peak_bytes']} bytes\n")
        sys.stderr.flush()

    # stage: assembly
    matrix = assemble_matrix(model)
    if export_path is not None:
        write_matrix_text(matrix, export_path)

    # stage: ranks
    proof = prove_rank_over_Q(matrix, primes)
    ranks, rank_q = proof.ranks, proof.rank_q
    _check(rank_q <= min(matrix.nrows, matrix.ncols),
           f"rank over Q {rank_q} exceeds min(rows, columns)")

    r_rows = matrix.nrows
    results = {"q": _characteristic_result(r_rows, rank_q)}
    for p in primes:
        results[f"p{p}"] = _characteristic_result(r_rows, ranks[p])

    report = dict(base)
    report["status"] = "ok"
    report["cycles"] = {
        "fundamental": list(fundamental),
        "used": list(used),
        "source": source,
        "coprime_adjusted": adjusted,
    }
    report["plan"] = {
        "lambda_bound": plan.lambda_bound,
        "tau": plan.tau,
        "nu": plan.nu,
        "beta_sequence": list(plan.beta_sequence),
    }
    report["model"] = {
        "j": j_used,
        "points": len(model.points),
        "rows": matrix.nrows,
        "columns": matrix.ncols,
        "nnz": matrix.nnz,
        "density": matrix.density,
        "estimated_assembly_bytes": est["assembly_peak_bytes"],
    }
    report["results"] = results
    report["sampled_rank_primes"] = proof.sampled_primes
    report["bad_primes"] = [p for p in primes if ranks[p] < rank_q]
    report["certified"] = proof.certificate_prime is not None
    report["certificate_prime"] = proof.certificate_prime
    report["notes"] = notes
    return report


# ---------------------------------------------------------------------------
# rendering


def render_text(report: dict) -> str:
    lines = [f"tautcheck {report['version']}"]
    g = report["graph"]
    src = f"preset {g['preset']}" if g.get("preset") else "graph"
    nv, ne = len(g["ids"]), g["edges"]
    lines.append(f"input: {src} with {nv} "
                 f"{'vertex' if nv == 1 else 'vertices'}, "
                 f"{ne} {'edge' if ne == 1 else 'edges'}")
    if report["status"] == "refused":
        lines.append(f"status: refused at stage '{report['stage']}'")
        for r in report["reasons"]:
            lines.append(f"  - {r}")
        return "\n".join(lines) + "\n"
    c = report["cycles"]
    lines.append(f"fundamental cycle: {tuple(c['fundamental'])}")
    tag = c["source"] + (", coprimality-adjusted" if c["coprime_adjusted"]
                         else "")
    lines.append(f"plan cycle:        {tuple(c['used'])}  [{tag}]")
    p, m = report["plan"], report["model"]
    lines.append(f"plan: lambda={p['lambda_bound']} tau={p['tau']} "
                 f"nu={p['nu']} j={m['j']}")
    lines.append(f"model: points={m['points']} rows={m['rows']} "
                 f"columns={m['columns']} nnz={m['nnz']} "
                 f"density={m['density']:.6f} "
                 f"estimated_bytes={m['estimated_assembly_bytes']}")
    lines.append("")
    lines.append(f"{'char':>8}  {'rank':>9}  {'h1':>5}  verdict")
    for key, res in report["results"].items():
        label = "Q" if key == "q" else key[1:]
        lines.append(f"{label:>8}  {res['rank']:>9}  {res['h1']:>5}  "
                     f"{res['verdict']}")
    lines.append("")
    bad = report["bad_primes"]
    lines.append("bad primes: " + (", ".join(map(str, bad)) if bad else "none"))
    if report["certified"]:
        lines.append(f"rational rank proved: full rank mod "
                     f"{report['certificate_prime']}")
    else:
        lines.append("rational rank is a lower bound: no ranked prime "
                     "reached full rank")
    for note in report["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_structured(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


def _parse_primes(text: str) -> list[int]:
    try:
        out = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}") from None
    if not out:
        raise argparse.ArgumentTypeError("empty prime list")
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautcheck",
        description="Tautness analysis of normal surface singularities "
                    "from resolution dual graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="run the full analysis")
    src = an.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="FILE",
                     help="dual graph file (vertex/edge lines)")
    src.add_argument("--preset", metavar="NAME",
                     help="built-in graph: A<n>, D<n> (n >= 4), E6..E8")
    an.add_argument("--primes", type=_parse_primes, default=list(DEFAULT_PRIMES),
                    metavar="LIST", help="candidate characteristics "
                    "(comma separated, default 2,3,5,7)")
    an.add_argument("--j", type=int, default=None, metavar="N",
                    help="override the automatic twist prime j")
    an.add_argument("--export-matrix", metavar="PATH", default=None,
                    help="write the assembled matrix in the text format")
    an.add_argument("--mem-cap", type=int, default=None, metavar="BYTES",
                    help="refuse assembly above this estimated footprint "
                    "(default: the physical memory)")
    an.add_argument("--format", choices=("text", "structured"),
                    default="text", help="output format (default text)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:        # argparse: 0 after --help, else usage
        return 1 if exc.code else 0
    # every package error is a ValueError
    try:
        graph = None
        if args.graph is not None:
            with open(args.graph) as f:
                graph = parse_graph(f.read())
        report = analyze(graph=graph, preset=args.preset,
                         primes=args.primes, j=args.j,
                         mem_cap=args.mem_cap,
                         export_path=args.export_matrix)
        text = render_structured(report) if args.format == "structured" \
            else render_text(report)
        sys.stdout.write(text)
        return 0 if report["status"] == "ok" else 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

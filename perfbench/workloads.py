"""One benchmark run in a fresh process.

Sets up a workload's inputs, times passes over them, checks every output
and prints one JSON line with the raw measurements; run.py starts this
script and turns its output into metrics.  See README.md.

    python3 perfbench/workloads.py --workload e7-analyze --seed 1
        --seconds 22 --trace 0 --work .perfbench-work --time-limit 170
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import tautcheck
from tautcheck import cli
from tautcheck.cycles import fundamental_cycle, is_anti_ample
from tautcheck.graph import (is_connected, is_negative_definite, parse_graph,
                             potential_tautness_violations, preset_graph)
from tautcheck.linalg import rank_mod_p, sample_rank_primes
from tautcheck.plumbing import (assemble_matrix, build_model,
                                estimate_assembly)

import trees

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
PRIMES = trees.PRIMES          # the CLI's default candidate primes
MC_TRIALS = 3                  # analyze's number of sampled 31-bit primes
# spans whose resident-memory growth is sampled in the traced run
MEMORY_SPANS = ("linalg.rank",)
_PAGE = os.sysconf("SC_PAGE_SIZE")


# ---------------------------------------------------------------------------
# timing and tracing


class PeakSampler:
    """High-water growth of this process's resident set during a block.

    A thread polls /proc/self/statm every INTERVAL seconds.  When the
    block raises the process's lifetime peak (ru_maxrss), that exact
    peak is used, so the figure is exact for the block that sets it and
    a sampled lower bound otherwise."""

    INTERVAL = 0.002
    growth = 0

    def _rss(self) -> int:
        return int(os.pread(self._fd, 64, 0).split()[1]) * _PAGE

    def _poll(self):
        while not self._stop.wait(self.INTERVAL):
            self._peak = max(self._peak, self._rss())

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._start = self._peak = self._rss()
        self._maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        peak = max(self._peak, self._rss())
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if maxrss > self._maxrss:
            peak = max(peak, maxrss * 1024)
        os.close(self._fd)
        self.growth = peak - self._start
        return False


class Recorder:
    """Times calls into the program.

    Every call adds its wall and CPU time to the running totals, so the
    checks between calls stay outside the timed section.  A traced
    recorder also keeps one span per call (name, start, end, parent,
    input id, optional tag such as the prime) in memory; they are written
    out when the run ends."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.cpu = 0.0
        self.spans: list[dict] = []
        self._parent: int | None = None
        self._input: str | None = None

    def call(self, name: str, fn, *args, tag=None):
        sampler = PeakSampler() if self.traced and name in MEMORY_SPANS \
            else contextlib.nullcontext()
        c0 = time.process_time()
        t0 = time.perf_counter()
        with sampler:
            result = fn(*args)
        t1 = time.perf_counter()
        self.cpu += time.process_time() - c0
        self.wall += t1 - t0
        if self.traced:
            span = {"name": name, "start": t0, "end": t1,
                    "parent": self._parent, "input": self._input, "tag": tag}
            if isinstance(sampler, PeakSampler):
                span["rss_growth"] = sampler.growth
            self.spans.append(span)
        return result

    @contextlib.contextmanager
    def root(self, name: str, input_id: str):
        """A parent span around the calls made for one input."""
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": None, "input": input_id, "tag": None}
        if self.traced:
            self.spans.append(span)
        self._parent, self._input = len(self.spans) - 1, input_id
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._parent = self._input = None


# ---------------------------------------------------------------------------
# the program's stages, as public calls


def _read_graph(path: str):
    with open(path) as f:
        return parse_graph(f.read())


def _refusal_reasons(g) -> list[str]:
    """The combinatorial checks `analyze` runs before anything else."""
    reasons = []
    if g.n == 0:
        reasons.append("no vertices")
    if g.n and not is_connected(g):
        reasons.append("not connected")
    if g.n and not is_negative_definite(g):
        reasons.append("not negative definite")
    return reasons + potential_tautness_violations(g)


def assembly_allocation(g, j: int) -> int:
    """Peak bytes that assembling a fresh model of (g, j) allocates, as
    tracemalloc counts them (numpy reports its buffers to it).  Exact,
    and unlike resident-set growth it does not depend on how much freed
    heap earlier calls left to reuse.  Made outside the timed spans:
    tracemalloc slows the Python loops of small assemblies by ~20%."""
    model = build_model(g, j, PRIMES)
    tracemalloc.start()
    try:
        assemble_matrix(model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def entry_digest(rows, cols, vals) -> str:
    """Order- and dtype-independent hash of (row, col, value) triples."""
    x = rows.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= cols.astype(np.uint64)
    x *= np.uint64(0xC2B2AE3D27D4EB4F)
    x ^= vals.astype(np.uint64)
    x *= np.uint64(0x165667B19E3779F9)
    x ^= x >> np.uint64(29)
    return f"{int(x.sum(dtype=np.uint64)):016x}"


def stages(rec: Recorder, *, preset: str | None = None,
           path: str | None = None, ranks: bool = True) -> dict:
    """Run the stages of `cli.analyze` one public call at a time: graph,
    checks, cycles, plan, model, estimate, assembly, then per prime the
    reduction mod p and (with `ranks`) the rank.  Ranks run one prime
    after another so each span times one prime alone."""
    if preset is not None:
        g, preset_cycle = rec.call("graph.parse", preset_graph, preset)
    else:
        g, preset_cycle = rec.call("graph.parse", _read_graph, path), None
    if rec.call("graph.checks", _refusal_reasons, g):
        return {"refused": "graph-checks"}
    rec.call("cycles.fundamental", fundamental_cycle, g)
    if preset_cycle is not None:
        used = tuple(preset_cycle)
        if not rec.call("cycles.cycle", is_anti_ample, g, used):
            raise AssertionError("preset cycle is not anti-ample")
    else:
        used = rec.call("cycles.cycle", trees.computed_cycle, g)
    j = rec.call("cycles.plan", trees.plan_j, g, used)
    model = rec.call("plumbing.model", build_model, g, j, PRIMES)
    est = rec.call("plumbing.estimate", estimate_assembly, model)
    matrix = rec.call("plumbing.assemble", assemble_matrix, model)
    out = {"model_rows": model.row_count, "rows": matrix.nrows,
           "cols": matrix.ncols, "nnz": matrix.nnz, "estimate": est,
           "kept": {}, "digest": {}, "ranks": {}}
    mc = sample_rank_primes(MC_TRIALS) if ranks else []
    for p in PRIMES + mc:
        triples = rec.call("sparse.reduce", matrix.arrays_mod, p, tag=p)
        out["kept"][p] = int(triples[0].size)
        out["digest"][p] = entry_digest(*triples)
        del triples
        if ranks:
            out["ranks"][p] = rec.call("linalg.rank", rank_mod_p, matrix, p,
                                       tag=p)
    out["mc_primes"] = mc
    if rec.traced:
        del matrix, model      # one assembled matrix in memory at a time
        out["allocated"] = assembly_allocation(g, j)
    return out


def run_cli(argv: list[str]) -> dict:
    """`cli.main(argv)` with its output captured and its wall/CPU time."""
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    text = out.getvalue()
    return {"rc": rc, "wall": wall, "cpu": cpu,
            "report": json.loads(text) if text else None}


# ---------------------------------------------------------------------------
# checks: each returns a list of mismatches, empty when the output is right


def check_report_invariants(report: dict) -> list[str]:
    m, res = report["model"], report["results"]
    errs = []
    if m["rows"] != 2 * m["points"] * (m["j"] ** 2 - m["j"]):
        errs.append(f"rows {m['rows']} != 2*points*(j^2-j)")
    rank_q = res["q"]["rank"]
    if not rank_q <= min(m["rows"], m["columns"]):
        errs.append(f"rank over Q {rank_q} exceeds min(rows, columns)")
    for p in PRIMES:
        r = res[f"p{p}"]
        if not r["rank"] <= rank_q:
            errs.append(f"rank mod {p} {r['rank']} > rank over Q {rank_q}")
        if not res["q"]["h1"] <= r["h1"]:
            errs.append(f"h1 over Q > h1 mod {p}")
        if r["h1"] != m["rows"] - r["rank"]:
            errs.append(f"h1 mod {p} != rows - rank")
    return errs


def report_ranks(report: dict) -> dict:
    return {k: [v["rank"], v["h1"]] for k, v in report["results"].items()}


def check_e7(run: dict) -> list[str]:
    ref = REFERENCE["e7-analyze"]
    report = run["report"]
    if run["rc"] != 0 or report is None or report.get("status") != "ok":
        return [f"E7 analyze exited {run['rc']}"]
    errs = check_report_invariants(report)
    if report["model"]["rows"] != ref["rows"]:
        errs.append(f"E7 rows {report['model']['rows']}")
    if report_ranks(report) != ref["ranks"]:
        errs.append(f"E7 ranks/h1 {report_ranks(report)}")
    if report["bad_primes"] != ref["bad_primes"]:
        errs.append(f"E7 bad primes {report['bad_primes']}")
    return errs


def check_tree(item: dict, run: dict, ref: dict | None) -> list[str]:
    report = run["report"]
    if item["kind"] != "valid":
        if run["rc"] != 2 or report is None or \
                report.get("stage") != "graph-checks":
            return [f"{item['kind']} graph not refused at graph-checks "
                    f"(exit {run['rc']})"]
        return []
    if run["rc"] != 0 or report is None or report.get("status") != "ok":
        return [f"valid tree refused or failed (exit {run['rc']})"]
    errs = check_report_invariants(report)
    if report["model"]["nnz"] != item["nnz"]:
        errs.append(f"nnz {report['model']['nnz']} != estimate {item['nnz']}")
    if ref is not None and report_ranks(report) != ref:
        errs.append(f"ranks/h1 {report_ranks(report)} != reference {ref}")
    return errs


def check_traced(traced: dict, report: dict | None) -> list[str]:
    """The traced stages must reproduce the untraced report."""
    if report is None or report.get("status") != "ok":
        if traced.get("refused") and report is not None and \
                report.get("stage") == traced["refused"]:
            return []
        return ["traced stages and report disagree on refusal"]
    if "refused" in traced:
        return ["traced stages refused an input the report analyzed"]
    res = report["results"]
    ranks = traced["ranks"]
    errs = []
    if traced["mc_primes"] != report["sampled_rank_primes"]:
        errs.append("traced sampled primes differ from the report")
    for p in PRIMES:
        if ranks[p] != res[f"p{p}"]["rank"]:
            errs.append(f"traced rank mod {p} differs from the report")
    if max(ranks.values()) != res["q"]["rank"]:
        errs.append("traced rank over Q differs from the report")
    if traced["nnz"] != report["model"]["nnz"]:
        errs.append("traced nnz differs from the report")
    return errs


def check_e8(out: dict) -> dict[str, list[str]]:
    """Mismatches per checked call of one e8-model pass."""
    ref = REFERENCE["e8-model"]
    errs = {"model": [], "estimate": [], "assemble": []}
    if out["model_rows"] != ref["rows"]:
        errs["model"].append(f"model rows {out['model_rows']}")
    if out["estimate"]["nnz"] != ref["nnz"]:
        errs["estimate"].append(f"estimated nnz {out['estimate']['nnz']}")
    if (out["rows"], out["nnz"]) != (ref["rows"], ref["nnz"]):
        errs["assemble"].append(f"assembled {out['rows']} rows, "
                                f"{out['nnz']} nnz")
    for p in PRIMES:
        want = ref["reduced"][str(p)]
        got = [out["kept"][p], out["digest"][p]]
        errs[f"reduce {p}"] = [] if got == want else \
            [f"mod {p}: kept/digest {got} != {want}"]
    return errs


# ---------------------------------------------------------------------------
# workloads


class Run:
    """Outcome of one run: passes, latencies, failures, spans."""

    def __init__(self, traced: bool):
        self.rec = Recorder(traced)
        self.passes: list[dict] = []
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        # traced runs only
        self.untraced_wall = 0.0
        self.cli_wall_by_input: dict[str, float] = {}
        self.nnz_by_input: dict[str, int] = {}
        self.estimate_by_input: dict[str, int] = {}
        self.allocated_by_input: dict[str, int] = {}
        self.kept_nnz = {p: 0 for p in PRIMES}
        self.analyses = 0
        self.mc_needed = 0

    def add_model(self, out: dict, input_id: str) -> None:
        self.nnz_by_input[input_id] = out["nnz"]
        self.estimate_by_input[input_id] = \
            out["estimate"]["assembly_peak_bytes"]
        self.allocated_by_input[input_id] = out["allocated"]
        for p in PRIMES:
            self.kept_nnz[p] += out["kept"][p]

    def op(self, errors: list[str], what: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                sys.stderr.write(f"mismatch: {what}: {e}\n")

    def guarded(self, what: str, fn, *args, **kwargs):
        """Call fn; an exception counts as one failed operation."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.op(["raised"], what)
            return None


def repeat_passes(run: Run, one_pass, seconds: float) -> None:
    """Closed loop: whole passes, one after another, while the next pass
    is expected to end within `seconds`; always at least one."""
    start = time.perf_counter()
    while True:
        wall, cpu = one_pass()
        run.passes.append({"wall": wall, "cpu": cpu})
        elapsed = time.perf_counter() - start
        if elapsed + max(p["wall"] for p in run.passes) > seconds:
            return


E7_ARGV = ["analyze", "--preset", "E7", "--format", "structured"]


def e7_analyze(run: Run, inputs, seconds: float) -> None:
    def one_pass():
        res = run.guarded("E7 analyze", run_cli, E7_ARGV)
        if res is None:
            return 0.0, 0.0
        run.op(check_e7(res), "E7 analyze")
        run.latencies_ms.append(res["wall"] * 1000)
        return res["wall"], res["cpu"]
    repeat_passes(run, one_pass, seconds)


def e7_traced(run: Run, inputs) -> None:
    traced_analyses(run, [("E7", {"preset": "E7"}, E7_ARGV, check_e7)])


def e8_model(run: Run, inputs, seconds: float) -> None:
    def one_pass():
        rec = Recorder(traced=False)
        out = run.guarded("E8 model", stages, rec, preset="E8", ranks=False)
        if out is not None:
            for what, errs in check_e8(out).items():
                run.op(errs, f"E8 {what}")
            run.latencies_ms.append(rec.wall * 1000)
        return rec.wall, rec.cpu
    repeat_passes(run, one_pass, seconds)


def e8_traced(run: Run, inputs) -> None:
    """The traced pass, then an untraced one for the tracing overhead."""
    rec = run.rec
    with rec.root("model-pass", "E8"):
        out = run.guarded("E8 traced", stages, rec, preset="E8", ranks=False)
    if out is None:
        return
    for what, errs in check_e8(out).items():
        run.op(errs, f"E8 traced {what}")
    run.add_model(out, "E8")
    untraced = Recorder(traced=False)
    if run.guarded("E8 untraced", stages, untraced, preset="E8",
                   ranks=False) is not None:
        run.untraced_wall = untraced.wall


def graph_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tree_setup(seed: int, work: Path) -> dict:
    """Write the survey's graph files; attach the reference ranks when
    this seed has a reference file."""
    survey = trees.make_survey(seed)
    for i, item in enumerate(survey):
        item["path"] = str(work / f"tree-{i:03d}.txt")
        with open(item["path"], "w") as f:
            f.write(item["text"])
    ref_path = Path(__file__).parent / f"reference-tree-survey-seed{seed}.json"
    if ref_path.exists():
        refs = json.loads(ref_path.read_text())
        if [r["graph"] for r in refs] != \
                [graph_digest(item["text"]) for item in survey]:
            raise SystemExit(f"{ref_path.name} does not match the survey "
                             f"generated for seed {seed}")
        for item, r in zip(survey, refs):
            item["ref"] = r["ranks"]
    return {"survey": survey}


def _tree_argv(item: dict) -> list[str]:
    return ["analyze", "--graph", item["path"], "--format", "structured"]


def tree_survey(run: Run, inputs, seconds: float) -> None:
    survey = inputs["survey"]

    def one_pass():
        results = []
        wall = cpu = 0.0
        for item in survey:
            res = run.guarded("tree analyze", run_cli, _tree_argv(item))
            results.append(res)
            if res is not None:
                wall += res["wall"]
                cpu += res["cpu"]
                run.latencies_ms.append(res["wall"] * 1000)
        for i, (item, res) in enumerate(zip(survey, results)):
            if res is not None:
                run.op(check_tree(item, res, item.get("ref")), f"tree {i}")
        return wall, cpu
    repeat_passes(run, one_pass, seconds)


def tree_traced(run: Run, inputs) -> None:
    jobs = []
    for i, item in enumerate(inputs["survey"]):
        def check(res, item=item):
            return check_tree(item, res, item.get("ref"))
        jobs.append((f"tree-{i:03d}", {"path": item["path"]},
                     _tree_argv(item), check))
    traced_analyses(run, jobs)


def traced_analyses(run: Run, jobs) -> None:
    """For each input: the traced stages, the untraced CLI run, the
    rendering of its report, then the checks, including that the traced
    stages give the report's ranks."""
    rec = run.rec
    for input_id, source, argv, check in jobs:
        with rec.root("analyze", input_id):
            traced = run.guarded(f"{input_id} traced", stages, rec, **source)
        res = run.guarded(f"{input_id} analyze", run_cli, argv)
        if traced is None or res is None:
            continue
        report = res["report"]
        run.cli_wall_by_input[input_id] = res["wall"]
        run.untraced_wall += res["wall"]
        if report is not None:
            with rec.root("render", input_id):
                rec.call("cli.render", cli.render_structured, report)
        if "refused" not in traced:
            run.add_model(traced, input_id)
        if report is not None and report.get("status") == "ok":
            res_ = report["results"]
            run.analyses += 1
            run.mc_needed += res_["q"]["rank"] > max(
                res_[f"p{p}"]["rank"] for p in PRIMES)
        run.op(check(res) + check_traced(traced, report), input_id)


# spans of analyze's own stages; sparse.reduce is an extra call the
# traced run makes beside each rank, so it is not part of them
ANALYZE_SPANS = ("graph.parse", "graph.checks", "cycles.fundamental",
                 "cycles.cycle", "cycles.plan", "plumbing.model",
                 "plumbing.estimate", "plumbing.assemble", "linalg.rank",
                 "cli.render")
MIB = 1 << 20


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics from the spans of a traced run."""
    spans = [s for s in run.rec.spans if s["parent"] is not None]

    def busy(name, keep=lambda s: True):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and keep(s))

    def growth(name):
        return {s["input"]: s["rss_growth"] for s in spans
                if s["name"] == name}

    m = {"linalg.rank_s.mc": busy("linalg.rank",
                                  lambda s: s["tag"] not in PRIMES)}
    for p in PRIMES:
        m[f"linalg.rank_s.p{p}"] = busy("linalg.rank",
                                        lambda s, p=p: s["tag"] == p)
    m["linalg.rank_peak_mb"] = max(growth("linalg.rank").values(),
                                   default=0) / MIB
    nnz, est = run.nnz_by_input, run.estimate_by_input
    allocated = run.allocated_by_input
    m["plumbing.assemble_s"] = busy("plumbing.assemble")
    m["plumbing.assemble_peak_mb"] = max(allocated.values(), default=0) / MIB
    # both ratios on the input with the most entries
    largest = max(nnz, key=nnz.get, default=None)
    m["plumbing.bytes_per_entry"] = \
        allocated[largest] / nnz[largest] if largest else 0.0
    m["plumbing.estimate_ratio"] = \
        est[largest] / allocated[largest] if largest else 0.0
    m["plumbing.estimate_s"] = busy("plumbing.estimate")
    m["plumbing.nnz"] = sum(nnz.values())
    m["plumbing.model_s"] = busy("plumbing.model")
    m["sparse.reduce_s"] = busy("sparse.reduce")
    for p in PRIMES:
        m[f"sparse.kept_nnz.p{p}"] = run.kept_nnz[p]
    for name in ("graph.parse", "graph.checks", "cycles.fundamental",
                 "cycles.cycle", "cycles.plan", "cli.render"):
        m[f"{name}_s"] = busy(name)
    m["cli.self_s"] = sum(
        wall - sum(s["end"] - s["start"] for s in spans
                   if s["input"] == input_id and s["name"] in ANALYZE_SPANS)
        for input_id, wall in run.cli_wall_by_input.items())
    roots = sum(s["end"] - s["start"] for s in run.rec.spans
                if s["parent"] is None)
    m["trace.overhead_s"] = roots - run.untraced_wall
    return m


WORKLOAD_FNS = {
    "e7-analyze": (lambda seed, work: None, e7_analyze, e7_traced),
    "e8-model": (lambda seed, work: None, e8_model, e8_traced),
    "tree-survey": (tree_setup, tree_survey, tree_traced),
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_FNS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--time-limit", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    signal.alarm(max(1, args.time_limit))
    src = (ROOT / "src").resolve()
    if src not in Path(tautcheck.__file__).resolve().parents:
        sys.stderr.write(f"tautcheck imported from {tautcheck.__file__}, "
                         f"not from {src}\n")
        return 2
    setup, untraced_fn, traced_fn = WORKLOAD_FNS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work))
    try:
        inputs = setup(args.seed, tmp)
        ready_at = time.monotonic()
        result = {"ready_at": ready_at}
        if not args.setup_only:
            run = Run(traced=bool(args.trace))
            if args.trace:
                traced_fn(run, inputs)
                trace_path = args.work / \
                    f"trace-{args.workload}-seed{args.seed}.json"
                trace_path.write_text(json.dumps(run.rec.spans) + "\n")
                result["layers"] = layer_metrics(run)
                # exact counts, 0 at this commit, so printed beside the
                # metrics rather than listed among them
                result["mc_needed"] = [run.mc_needed, run.analyses]
            else:
                untraced_fn(run, inputs, args.seconds)
            result.update(passes=run.passes, latencies_ms=run.latencies_ms,
                          attempted=run.attempted, failed=run.failed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

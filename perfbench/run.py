"""tautcheck benchmark: one run of one workload.

    python3 perfbench/run.py --workload e7-analyze --seed 1 --trace 0

Run from anywhere; the checkout is the directory above this one and the
program is imported from its `src`.  Each run starts fresh child
processes, one at a time, with an explicit environment: SETUP_REPEATS
that set up the workload's inputs, the middle one of which also
measures.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Lines before it repeat every metric by name and unit, plus failed_frac.
The exit code is 0 when every output matched its reference, 1 when one
did not or a child failed, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 7
# every child must end before this many seconds after the run started
TIME_LIMIT_S = 170


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """The whole environment of a child: nothing else is inherited."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def spawn(args: list[str], deadline: float) -> tuple[dict, float, float]:
    """Run workloads.py in a fresh process and wait for it.

    Returns its JSON result, its peak RSS in MiB (from wait4) and the
    monotonic time just before it was started."""
    t0 = time.monotonic()
    limit = int(deadline - t0)
    if limit < 1:
        raise ChildFailed("no time left for another child")
    cmd = [sys.executable, str(HERE / "workloads.py"), *args,
           "--work", str(WORK), "--time-limit", str(limit)]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(out.splitlines()[-1]), usage.ru_maxrss / 1024, t0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(result: dict, peak_rss_mib: float,
               setup_s: list[float]) -> dict[str, float]:
    passes = result["passes"]
    lat = result["latencies_ms"]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": peak_rss_mib,
        "setup_s": statistics.median(setup_s),
        "analysis_ms_p50": percentile(lat, 50),
        "analysis_ms_p95": percentile(lat, 95),
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="tautcheck benchmark run")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tautcheck" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {ROOT / 'src'} holds "
                         f"no tautcheck package\n")
        return 2
    specs = bench["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            result, _, _ = spawn(common, deadline)
            metrics = result["layers"]
        else:
            # set-up children before and after the measuring one, so
            # the median spans the whole run, not one moment of the host
            setup_s = []
            for i in range(SETUP_REPEATS):
                if i == SETUP_REPEATS // 2:
                    result, peak_rss, t0 = spawn(common, deadline)
                    setup_s.append(result["ready_at"] - t0)
                else:
                    ready, _, t0 = spawn(common + ["--setup-only"], deadline)
                    setup_s.append(ready["ready_at"] - t0)
            metrics = end_to_end(result, peak_rss, setup_s)
    except ChildFailed as exc:
        sys.stderr.write(f"benchmark child failed: {exc}\n")
        return 1
    if set(metrics) != {s["name"] for s in specs}:
        sys.stderr.write(f"metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json\n")
        return 1
    attempted, failed = result["attempted"], result["failed"]
    out = {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
           for s in specs}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])} "
          f"latency samples={len(result['latencies_ms'])}")
    for name, m in out.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    counts = [("failed_frac", failed, attempted)]
    if args.trace:
        counts.append(("linalg.mc_needed_frac", *result["mc_needed"]))
    for name, part, base in counts:
        print(f"#   {name} = {part}/{base} = {part / max(base, 1):.6g} ratio")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

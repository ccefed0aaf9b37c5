"""Steadiness check: repeat benchmark runs and report how much each
metric spreads, so the bounds in BENCHMARK.json rest on measured data.

    python3 perfbench/steady.py --workload tree-survey --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --out baseline.json

Runs perfbench/run.py once per seed and workload, one run at a time, then
prints per metric the median, the quartiles (statistics.quantiles with
n=4), the spread (Q3 - Q1) / median and the metric's bound.  A spread
at or above a third of the bound is flagged.  Exit code 1 when a run
failed or reported a mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="repeatable; default all workloads")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                    help="seed range such as 1-10 (default)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    ok = True
    summary = {}
    for workload in args.workload or workloads:
        values: dict[str, list[float]] = {s["name"]: [] for s in specs}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{workload} seed {seed}: exit "
                                 f"{proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        summary[workload] = {}
        print(f"\n{workload}: {len(args.seeds)} seeds")
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for s in specs:
            if not values[s["name"]]:
                continue
            st = summarize(values[s["name"]])
            summary[workload][s["name"]] = dict(st, unit=s["unit"])
            bound = s.get("bound")
            flag = " <-- spread >= bound/3" \
                if bound and st["spread"] >= bound / 3 else ""
            print(f"  {s['name']:<28}{st['median']:>12.5g}{st['q1']:>12.5g}"
                  f"{st['q3']:>12.5g}{st['spread']:>9.3f}"
                  f"{bound if bound else '':>7}{flag}")
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

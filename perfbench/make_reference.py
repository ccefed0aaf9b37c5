"""Write the tree-survey reference for one seed from the current program.

    python3 perfbench/make_reference.py 1

Records, per survey graph, a digest of its text and the ranks and h1 of
every characteristic in its report (None for graphs that must be
refused).  Run it only when the survey generator changes, at a commit
whose ranks are trusted: the benchmark compares later runs against it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench-work"
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE.parent / "src"))

import trees  # noqa: E402
import workloads  # noqa: E402


def main(seed: int) -> None:
    refs = []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for i, item in enumerate(trees.make_survey(seed)):
            item["path"] = str(Path(tmp) / f"tree-{i:03d}.txt")
            Path(item["path"]).write_text(item["text"])
            res = workloads.run_cli(workloads._tree_argv(item))
            valid = item["kind"] == "valid"
            if res["rc"] != (0 if valid else 2):
                raise SystemExit(f"graph {i} ({item['kind']}): exit "
                                 f"{res['rc']}")
            refs.append({"graph": workloads.graph_digest(item["text"]),
                         "ranks": workloads.report_ranks(res["report"])
                         if valid else None})
    out = HERE / f"reference-tree-survey-seed{seed}.json"
    out.write_text("[\n" + ",\n".join(json.dumps(r) for r in refs) + "\n]\n")


if __name__ == "__main__":
    main(int(sys.argv[1]))

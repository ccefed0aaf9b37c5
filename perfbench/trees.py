"""Seeded random dual graphs for the tree-survey workload.

A survey is a fixed mix of inputs:

* potentially taut trees (2-5 vertices, self-intersection -2..-4,
  valence <= 3), drawn uniformly and kept while their band of estimated
  entry counts (at most NNZ_MAX) still wants trees.  The quotas follow
  the bands' shares in a natural draw, so the survey has the
  generator's mix, and its cost and latency percentiles depend little
  on the seed.  Entry counts are a property of the model, so no speed
  or memory change in the program admits different trees for the same
  seed, as a byte cap would.
* INVALID graphs that the analysis must refuse at its graph checks:
  a vertex of valence 4, a vertex of positive genus, or two adjacent
  (-1)-curves, whose 2x2 principal minor vanishes, so the form is not
  negative definite.

Everything is a function of the seed alone.
"""

from __future__ import annotations

import itertools
import random

from tautcheck.cli import DEFAULT_PRIMES
from tautcheck.cycles import (anti_ample_cycle, choose_j, make_coprime_to_all,
                              significant_multiplicity_to_all)
from tautcheck.graph import parse_graph
from tautcheck.plumbing import build_model, estimate_assembly

PRIMES = list(DEFAULT_PRIMES)
NNZ_MAX = 300_000
# Strata of the survey: (upper nnz bound, trees kept), each band starting
# above the previous bound.  Quotas are proportional to each band's share
# among the trees with nnz <= NNZ_MAX in a natural draw of 20,000 trees
# from _random_tree (random.Random(0); shares in README.md).  Stratifying
# keeps the draw's mix but makes a pass's cost depend little on the seed:
# the 25 trees above 170k entries take most of the time.
BANDS = ((500, 97), (1_000, 63), (70_000, 65), (170_000, 20),
         (NNZ_MAX, 25))
# Every survey makes at least this many draws, even when its quotas are
# met earlier, so set-up estimates about as many trees for every seed;
# seeds 1-400 met all quotas within it but one, which took 724 draws.
DRAWS = 700
INVALID = 30
INVALID_KINDS = ("valence", "genus", "indefinite")


def _random_tree(rng: random.Random
                 ) -> tuple[list[int], list[tuple[int, int]]]:
    n = rng.randint(2, 5)
    degree = [0] * n
    edges = []
    for v in range(1, n):
        parent = rng.choice([u for u in range(v) if degree[u] < 3])
        degree[parent] += 1
        degree[v] += 1
        edges.append((parent, v))
    return [rng.choice((-2, -3, -4)) for _ in range(n)], edges


def computed_cycle(g) -> tuple[int, ...]:
    """The cycle `analyze` uses for a graph without a preset cycle."""
    return make_coprime_to_all(g, anti_ample_cycle(g), PRIMES)


def plan_j(g, used) -> int:
    """The `j` `analyze` chooses automatically for cycle `used`."""
    plan = significant_multiplicity_to_all(g, used, PRIMES, "paper")
    return choose_j(plan.nu, max(used), PRIMES)


def graph_text(selfint: list[int], edges: list[tuple[int, int]],
               genus: list[int] | None = None) -> str:
    genus = genus or [0] * len(selfint)
    lines = [f"vertex v{i} genus={g} selfint={s}"
             for i, (g, s) in enumerate(zip(genus, selfint))]
    lines += [f"edge v{a} v{b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def estimated_nnz(text: str) -> int | None:
    """Entry count of the matrix `analyze` would assemble for a valid
    tree, or None when its row count alone exceeds NNZ_MAX.  These
    models have more entries than rows (at least 1.5 per row on 700
    random trees), so such a tree fails the nnz bound too; skipping its
    estimate keeps set-up short."""
    g = parse_graph(text)
    used = computed_cycle(g)
    model = build_model(g, plan_j(g, used), PRIMES)
    if model.row_count > NNZ_MAX:
        return None
    return estimate_assembly(model)["nnz"]


def _invalid(rng: random.Random, kind: str) -> str:
    if kind == "valence":
        return graph_text([rng.choice((-2, -3, -4)) for _ in range(5)],
                          [(0, v) for v in range(1, 5)])
    selfint, edges = _random_tree(rng)
    if kind == "genus":
        genus = [0] * len(selfint)
        genus[rng.randrange(len(selfint))] = 1
        return graph_text(selfint, edges, genus)
    a, b = rng.choice(edges)
    selfint[a] = selfint[b] = -1
    return graph_text(selfint, edges)


def _band(nnz: int) -> int:
    return next(i for i, (hi, _) in enumerate(BANDS) if nnz <= hi)


def _draws(rng: random.Random):
    """Endless uniform draws of trees: (graph text, estimated nnz), with
    None for the nnz of a tree the NNZ_MAX filter drops."""
    seen: dict[str, int | None] = {}
    while True:
        text = graph_text(*_random_tree(rng))
        if text not in seen:
            nnz = estimated_nnz(text)
            seen[text] = nnz if nnz is not None and nnz <= NNZ_MAX else None
        yield text, seen[text]


def natural_draw(draws: int, seed: int = 0) -> list[int]:
    """Kept trees per band among `draws` draws: the shares BANDS follows."""
    counts = [0] * len(BANDS)
    for _, nnz in itertools.islice(_draws(random.Random(seed)), draws):
        if nnz is not None:
            counts[_band(nnz)] += 1
    return counts


def make_survey(seed: int) -> list[dict]:
    """The survey for `seed`: dicts with `kind` ("valid" or one of
    INVALID_KINDS), graph `text` and, for valid trees, estimated `nnz`."""
    rng = random.Random(seed)
    wanted = [count for _, count in BANDS]
    out = []
    for draws, (text, nnz) in enumerate(_draws(rng), 1):
        if nnz is not None and wanted[_band(nnz)]:
            wanted[_band(nnz)] -= 1
            out.append({"kind": "valid", "text": text, "nnz": nnz})
        if draws >= DRAWS and not any(wanted):
            break
    for _ in range(INVALID):
        kind = rng.choice(INVALID_KINDS)
        out.append({"kind": kind, "text": _invalid(rng, kind), "nnz": None})
    rng.shuffle(out)
    return out


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/trees.py 20000
    import sys
    counts = natural_draw(int(sys.argv[1]))
    valid = sum(q for _, q in BANDS)
    for (hi, quota), n in zip(BANDS, counts):
        print(f"nnz <= {hi:>7}: {n:>6} trees, share {n / sum(counts):.4f}, "
              f"proportional quota {n / sum(counts) * valid:6.2f}, "
              f"kept {quota}")

"""Resolution dual graphs: parsing, presets, and combinatorial checks.

A dual graph is a finite weighted multigraph.  Vertices carry a genus
(``genus >= 0``) and a self-intersection number (``selfint < 0``); an
optional ``mult >= 1`` is validated, then dropped, as nothing reads it.
Edges are unordered pairs of distinct vertices; parallel edges are
allowed, loops are not.

The text format is line based::

    # comment
    vertex <id> genus=<int> selfint=<int> [mult=<int>]
    edge <id1> <id2>

Repeating an ``edge`` line adds a parallel edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .linalg import is_int


class GraphError(ValueError):
    """Raised for malformed graph files and invalid graph arguments."""


@dataclass
class DualGraph:
    """A weighted multigraph given by vertex order, decorations and edges.

    Attributes
    ----------
    ids : list of str
        Vertex identifiers in declaration order, for display and
        messages.  Everything else, and all cycle tuples and matrices
        returned by this package, is indexed by position in this order.
    genus, selfint : list of int
        The decorations of each vertex.
    edges : list of (int, int)
        Edges as pairs of vertex positions, in declaration order;
        duplicates encode parallel edges.
    """

    ids: list[str] = field(default_factory=list)
    genus: list[int] = field(default_factory=list)
    selfint: list[int] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.ids)

    def add_vertex(self, vid: str, genus: int, selfint: int,
                   mult: int | None = None) -> None:
        if vid in self.ids:
            raise GraphError(f"duplicate vertex id {vid!r}")
        for key, x in (("genus", genus), ("selfint", selfint),
                       ("mult", 1 if mult is None else mult)):
            if not is_int(x):
                raise GraphError(f"vertex {vid!r}: {key} must be an integer")
        if genus < 0:
            raise GraphError(f"vertex {vid!r}: genus must be >= 0")
        if selfint >= 0:
            raise GraphError(f"vertex {vid!r}: selfint must be < 0")
        if mult is not None and mult < 1:
            raise GraphError(f"vertex {vid!r}: mult must be >= 1")
        self.ids.append(vid)
        self.genus.append(genus)
        self.selfint.append(selfint)

    def add_edge(self, a: str, b: str) -> None:
        for vid in (a, b):
            if vid not in self.ids:
                raise GraphError(f"edge references unknown vertex {vid!r}")
        if a == b:
            raise GraphError(f"loop edge at vertex {a!r} is not allowed")
        self.edges.append((self.ids.index(a), self.ids.index(b)))

    def valence(self, i: int) -> int:
        """Number of edge endpoints at vertex `i` (parallel edges count)."""
        return sum((a == i) + (b == i) for a, b in self.edges)


# ---------------------------------------------------------------------------
# text format


_VERTEX_RE = re.compile(r"^vertex\s+(\S+)\s+(.*)$")
_EDGE_RE = re.compile(r"^edge\s+(\S+)\s+(\S+)\s*$")
_FIELD_RE = re.compile(r"^(genus|selfint|mult)=(-?\d+)$")


def parse_graph(text: str) -> DualGraph:
    """Parse the line-based dual graph format.

    Parameters
    ----------
    text : str
        File contents.

    Returns
    -------
    DualGraph

    Raises
    ------
    GraphError
        On syntax errors, duplicate vertex ids, unknown vertices in edges,
        loops, or out-of-range decorations.  Messages carry the 1-based
        line number.
    """
    g = DualGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("vertex"):
                m = _VERTEX_RE.match(line)
                if not m:
                    raise GraphError("malformed vertex line")
                vid, rest = m.group(1), m.group(2)
                fields: dict[str, int] = {}
                for tok in rest.split():
                    fm = _FIELD_RE.match(tok)
                    if not fm:
                        raise GraphError(f"bad vertex field {tok!r}")
                    key = fm.group(1)
                    if key in fields:
                        raise GraphError(f"repeated vertex field {key!r}")
                    fields[key] = int(fm.group(2))
                if "genus" not in fields or "selfint" not in fields:
                    raise GraphError("vertex needs genus=... and selfint=...")
                g.add_vertex(vid, fields["genus"], fields["selfint"],
                             fields.get("mult"))
            elif line.startswith("edge"):
                m = _EDGE_RE.match(line)
                if not m:
                    raise GraphError("malformed edge line")
                g.add_edge(m.group(1), m.group(2))
            else:
                raise GraphError(f"unknown directive {line.split()[0]!r}")
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from None
    return g


# ---------------------------------------------------------------------------
# combinatorial checks


def intersection_matrix(g: DualGraph) -> list[list[int]]:
    """Intersection matrix: self-intersections on the diagonal, edge
    multiplicities off it.  Entries are exact Python ints."""
    n = g.n
    m = [[0] * n for _ in range(n)]
    for i, s in enumerate(g.selfint):
        m[i][i] = s
    for i, j in g.edges:
        m[i][j] += 1
        m[j][i] += 1
    return m


def is_connected(g: DualGraph) -> bool:
    if g.n == 0:
        return False
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_negative_definite(g: DualGraph) -> bool:
    """Exact negative-definiteness test on the intersection matrix: the
    k-th leading principal minor must have sign (-1)^k for every k.  One
    fraction-free (Bareiss) elimination yields the minors as its pivots;
    it stops at the first that is zero or has the wrong sign.  A graph
    with no vertices is not negative definite."""
    a = intersection_matrix(g)
    prev = 1
    for k in range(g.n):
        piv = a[k][k]
        if piv == 0 or (piv > 0) != (k % 2 == 1):
            return False
        for i in range(k + 1, g.n):
            row_i, aik = a[i], a[i][k]
            for j in range(k + 1, g.n):
                row_i[j] = (row_i[j] * piv - aik * a[k][j]) // prev
        prev = piv
    return g.n > 0


def admissibility_violations(g: DualGraph) -> list[str]:
    """Why the analysis must refuse the graph: no vertices, not
    connected, not negative definite, or the genus/valence violations.
    Empty when the graph can be analyzed."""
    if g.n == 0:
        return ["graph has no vertices"]
    reasons = []
    if not is_connected(g):
        reasons.append("graph is not connected")
    if not is_negative_definite(g):
        reasons.append("intersection matrix is not negative definite")
    return reasons + potential_tautness_violations(g)


def potential_tautness_violations(g: DualGraph) -> list[str]:
    """Human-readable reasons why the graph fails the genus/valence test."""
    reasons = []
    for i, vid in enumerate(g.ids):
        if g.genus[i] != 0:
            reasons.append(f"vertex {vid} has genus {g.genus[i]} > 0")
        val = g.valence(i)
        if val > 3:
            reasons.append(f"vertex {vid} has valence {val} > 3")
    return reasons


# ---------------------------------------------------------------------------
# presets


# per family: the least and the greatest size (None: no bound; E9 is not
# negative definite), the fixed edges, then the first vertex of the
# chain first, first + 1, ..., n (vertices numbered from 1)
_PRESET_TREES = {
    "A": (1, None, (), 1),
    "D": (4, None, ((1, 3), (2, 3)), 3),
    "E": (6, 8, ((1, 2), (2, 3), (3, 4), (3, 5)), 5),
}


def preset_name(name: str) -> str:
    """The canonical spelling of a preset name: upper case, no
    underscores, the size as a number (``d_04`` is ``D4``).  Raises
    GraphError for a name that is no preset."""
    m = re.fullmatch(r"([ADE])(\d+)", name.strip().upper().replace("_", ""))
    n = int(m[2]) if m else 0
    if m and m[1] == "A" and n < 1:
        raise GraphError(f"preset {name!r}: chain length must be >= 1")
    least, most = _PRESET_TREES[m[1]][:2] if m else (1, None)
    if n < least or most is not None and n > most:
        raise GraphError(f"unknown preset {name!r} (available: A<n>, "
                         f"D<n> for n >= 4, E6, E7, E8)")
    return f"{m[1]}{n}"


def preset_graph(name: str) -> tuple[DualGraph, tuple[int, ...] | None]:
    """Built-in graphs: chains A<n> and the branched trees D<n>, E6..E8,
    named by any spelling `preset_name` accepts (``a_3``, ``D04`` ...).

    All preset vertices have genus 0 and self-intersection -2.  The D/E
    presets and A1 come with their least anti-ample cycle, computed by
    `cycles.anti_ample_cycle` (returned as the second element); longer
    chains return ``None`` and the pipeline computes one itself.
    """
    from .cycles import anti_ample_cycle      # cycles imports this module

    key = preset_name(name)
    family, n = key[0], int(key[1:])
    fixed, first = _PRESET_TREES[family][2:]
    v = family.lower()
    g = DualGraph()
    for i in range(1, n + 1):
        g.add_vertex(f"{v}{i}", 0, -2)
    for a, b in fixed + tuple((i, i + 1) for i in range(first, n)):
        g.add_edge(f"{v}{a}", f"{v}{b}")
    return g, anti_ample_cycle(g) if family != "A" or n == 1 else None

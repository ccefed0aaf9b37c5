"""Resolution dual graphs: parsing, presets, and combinatorial checks.

A dual graph is a finite weighted multigraph.  Vertices carry a genus
(``genus >= 0``), a self-intersection number (``selfint < 0``) and an
optional multiplicity decoration (``mult >= 1``, carried through for
reporting only).  Edges are unordered pairs of distinct vertices; parallel
edges are allowed, loops are not.

The text format is line based::

    # comment
    vertex <id> genus=<int> selfint=<int> [mult=<int>]
    edge <id1> <id2>

Repeating an ``edge`` line adds a parallel edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Raised for malformed graph files and invalid graph arguments."""


@dataclass
class VertexData:
    """Decorations of a single vertex."""

    genus: int
    selfint: int
    mult: int | None = None


@dataclass
class DualGraph:
    """A weighted multigraph given by vertex order, decorations and edges.

    Attributes
    ----------
    ids : list of str
        Vertex identifiers in declaration order.  All cycle tuples and
        matrices returned by this package are indexed in this order.
    data : dict
        Maps each id to its :class:`VertexData`.
    edges : list of (str, str)
        Edges in declaration order; duplicates encode parallel edges.
    """

    ids: list[str] = field(default_factory=list)
    data: dict[str, VertexData] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, vid: str) -> int:
        try:
            return self.ids.index(vid)
        except ValueError:
            raise GraphError(f"unknown vertex id {vid!r}") from None

    def add_vertex(self, vid: str, genus: int, selfint: int,
                   mult: int | None = None) -> None:
        if vid in self.data:
            raise GraphError(f"duplicate vertex id {vid!r}")
        if genus < 0:
            raise GraphError(f"vertex {vid!r}: genus must be >= 0")
        if selfint >= 0:
            raise GraphError(f"vertex {vid!r}: selfint must be < 0")
        if mult is not None and mult < 1:
            raise GraphError(f"vertex {vid!r}: mult must be >= 1")
        self.ids.append(vid)
        self.data[vid] = VertexData(genus, selfint, mult)

    def add_edge(self, a: str, b: str) -> None:
        if a not in self.data:
            raise GraphError(f"edge references unknown vertex {a!r}")
        if b not in self.data:
            raise GraphError(f"edge references unknown vertex {b!r}")
        if a == b:
            raise GraphError(f"loop edge at vertex {a!r} is not allowed")
        self.edges.append((a, b))

    def edge_indices(self) -> list[tuple[int, int]]:
        """Edges as pairs of vertex indices, in declaration order."""
        pos = {vid: i for i, vid in enumerate(self.ids)}
        return [(pos[a], pos[b]) for a, b in self.edges]

    def valence(self, vid: str) -> int:
        """Number of edge endpoints at `vid` (parallel edges count)."""
        return sum((a == vid) + (b == vid) for a, b in self.edges)


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


def serialize_graph(g: DualGraph) -> str:
    """Serialize a graph back to the text format (round-trips parse_graph)."""
    out = []
    for vid in g.ids:
        d = g.data[vid]
        line = f"vertex {vid} genus={d.genus} selfint={d.selfint}"
        if d.mult is not None:
            line += f" mult={d.mult}"
        out.append(line)
    for a, b in g.edges:
        out.append(f"edge {a} {b}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# combinatorial checks


def intersection_matrix(g: DualGraph) -> list[list[int]]:
    """Intersection matrix: self-intersections on the diagonal, edge
    multiplicities off it.  Entries are exact Python ints."""
    n = g.n
    m = [[0] * n for _ in range(n)]
    for i, vid in enumerate(g.ids):
        m[i][i] = g.data[vid].selfint
    for i, j in g.edge_indices():
        m[i][j] += 1
        m[j][i] += 1
    return m


def is_connected(g: DualGraph) -> bool:
    if g.n == 0:
        return False
    adj: dict[str, set[str]] = {v: set() for v in g.ids}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {g.ids[0]}
    stack = [g.ids[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def leading_principal_minors(m: list[list[int]]) -> list[int]:
    """Exact leading principal minors det(M_k), k = 1..n, via fraction-free
    elimination.  Stops early (returning the prefix computed so far, ending
    in 0) when a zero minor is hit."""
    a = [row[:] for row in m]
    n = len(a)
    minors: list[int] = []
    prev = 1
    for k in range(n):
        piv = a[k][k]
        minors.append(piv)
        if piv == 0:
            break
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return minors


def is_negative_definite(g: DualGraph | list[list[int]]) -> bool:
    """Exact negative-definiteness test: the k-th leading principal minor
    must have sign (-1)^k for every k.  Accepts a graph (tested on its
    intersection matrix) or a square integer matrix given as rows."""
    m = intersection_matrix(g) if isinstance(g, DualGraph) else g
    n = len(m)
    if n == 0:
        return False
    minors = leading_principal_minors(m)
    if len(minors) < n:
        return False
    return all(det != 0 and (det > 0) == (k % 2 == 0)
               for k, det in enumerate(minors, start=1))


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
    for vid in g.ids:
        if g.data[vid].genus != 0:
            reasons.append(f"vertex {vid} has genus {g.data[vid].genus} > 0")
        val = g.valence(vid)
        if val > 3:
            reasons.append(f"vertex {vid} has valence {val} > 3")
    return reasons


# ---------------------------------------------------------------------------
# presets


_PRESET_CYCLES = {
    "D4": (3, 3, 5, 3),
    "D5": (5, 5, 9, 7, 4),
    "D6": (8, 8, 15, 13, 10, 6),
    "D7": (11, 11, 21, 19, 16, 12, 7),
    "E6": (8, 15, 21, 11, 15, 8),
    "E7": (18, 35, 51, 26, 40, 28, 15),
    "E8": (46, 91, 135, 68, 110, 84, 57, 29),
}


# per family: the fixed edges, then the first vertex of the chain
# first, first + 1, ..., n (vertices numbered from 1)
_PRESET_TREES = {
    "A": ((), 1),
    "D": (((1, 3), (2, 3)), 3),
    "E": (((1, 2), (2, 3), (3, 4), (3, 5)), 5),
}


def preset_graph(name: str) -> tuple[DualGraph, tuple[int, ...] | None]:
    """Built-in graphs: chains A<n> and the branched trees D4..D7, E6..E8.

    All preset vertices have genus 0 and self-intersection -2.  The D/E
    presets come with a known anti-ample cycle (returned as the second
    element), as does A1 (where ``(1)`` is the only sensible choice);
    longer chains return ``None`` and the pipeline computes one.

    Parameters
    ----------
    name : str
        Case-insensitive, underscore optional: ``A3``, ``a_3``, ``D4`` ...

    Returns
    -------
    (DualGraph, tuple or None)
    """
    key = name.strip().upper().replace("_", "")
    m = re.fullmatch(r"([ADE])(\d+)", key)
    if m is None or (m[1] != "A" and key not in _PRESET_CYCLES):
        raise GraphError(f"unknown preset {name!r} "
                         f"(available: A<n>, D4, D5, D6, D7, E6, E7, E8)")
    n = int(m[2])
    if n < 1:
        raise GraphError(f"preset {name!r}: chain length must be >= 1")
    fixed, first = _PRESET_TREES[m[1]]
    v = m[1].lower()
    g = DualGraph()
    for i in range(1, n + 1):
        g.add_vertex(f"{v}{i}", 0, -2)
    for a, b in fixed + tuple((i, i + 1) for i in range(first, n)):
        g.add_edge(f"{v}{a}", f"{v}{b}")
    return g, _PRESET_CYCLES.get(key, (1,) if n == 1 else None)

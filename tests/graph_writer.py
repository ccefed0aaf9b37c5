"""A writer of the dual graph text format, so the tests can write graph
files and round-trip `parse_graph`; it imports nothing from
`tautcheck`."""


def graph_text(g):
    """The text format of a DualGraph: its vertex lines in order, then
    one edge line per edge (a parallel edge repeats its line)."""
    lines = [f"vertex {vid} genus={g.data[vid].genus} "
             f"selfint={g.data[vid].selfint}" for vid in g.ids]
    lines += [f"edge {a} {b}" for a, b in g.edges]
    return "\n".join(lines) + "\n"

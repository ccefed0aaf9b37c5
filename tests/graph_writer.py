"""A writer of the dual graph text format, so the tests can write graph
files and round-trip `parse_graph`; it imports nothing from
`tautcheck`."""


def graph_text(g):
    """The text format of a DualGraph: its vertex lines in order, then
    one edge line per edge (a parallel edge repeats its line)."""
    lines = [f"vertex {vid} genus={genus} selfint={selfint}"
             for vid, genus, selfint in zip(g.ids, g.genus, g.selfint)]
    lines += [f"edge {g.ids[a]} {g.ids[b]}" for a, b in g.edges]
    return "\n".join(lines) + "\n"

"""A non-bipartite mixed graph with a spectrum symmetric about zero.

For real adjacency matrices, spectral symmetry characterizes bipartite
graphs.  With sixth-root gains it does not: put a gain-1 triangle and a
gain-(-1) triangle on the same two shared vertices and the odd coefficients
of the characteristic polynomial cancel, so every eigenvalue pairs with its
negative, yet the underlying graph still has odd cycles.  The exhaustive
n = 4 campaign finds 540 such labeled graphs; this is the smallest family.
"""

from mixedrandic import (
    char_poly_combinatorial,
    classify_cycle,
    enumerate_cycles,
    gain_view,
    parse_graph,
    randic_spectrum,
)
from mixedrandic.gains import graph_balance

TEXT = """mixedgraph v1
vertices 4
1 -> 2
1 -> 3
2 -- 3
2 -> 4
4 -> 1
"""

g = parse_graph(TEXT)
view = gain_view(g)
print("bipartite:", bool(graph_balance(g).bipartite[0]))
for cycle in enumerate_cycles(g):
    print("cycle", cycle, "->", classify_cycle(view, cycle).name)
print("coefficients:", [str(c) for c in char_poly_combinatorial(g).coefficients])
values = randic_spectrum(g).eigenvalues
print("eigenvalues:", " ".join(f"{v:+.8f}" for v in values))
print("max |lambda_k + lambda_(n+1-k)|:", max(abs(values[k] + values[-1 - k]) for k in range(len(values))))

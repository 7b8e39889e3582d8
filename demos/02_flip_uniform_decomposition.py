#!/usr/bin/env python3
"""Why the walker oscillates: flip states and uniform states.

The only states the squared walk U^2 leaves fixed are spanned by two
families: uniform states (equal superpositions over all arcs leaving a vertex
class) and flip states (zero average outgoing and incoming amplitude at every
vertex).  Splitting a starting state into flip + uniform + remainder gives
hard lower bounds on the return overlap at even steps and on the overlap with
the flipped state at odd steps:

    even bound = 2 (alpha_sq + beta_sq) - 1
    odd bound  = 2 max(alpha_sq, beta_sq) - 1

Here we decompose single-edge states on a few graphs, compare the bounds with
measured overlaps, and confirm the fixed subspace is exactly flip + uniform.
"""

import numpy as np

from oscillwalk import (
    ArcState,
    basis_arc_state,
    bipartite_double,
    bipartite_partition,
    complete_graph,
    cycle_graph,
    decompose,
    flip_projection,
    hypercube_graph,
    measured_overlaps,
    one_eigenspace_u2,
    oscillation_bounds,
    uniform_state,
)

for g in (complete_graph(8), hypercube_graph(3), cycle_graph(6)):
    psi = basis_arc_state(g, *g.edges[0])
    dec = decompose(psi)
    report = oscillation_bounds(dec)
    series = measured_overlaps(psi, 20)
    print(f"{g.name}: alpha_sq={dec.alpha_sq:.6f} beta_sq={dec.beta_sq:.6f} "
          f"gamma_sq={dec.gamma_sq:.6f}")
    print(f"  even bound {report.even_bound:+.6f} vs measured min "
          f"{series.even_overlaps.min():+.6f}")
    print(f"  odd  bound {report.odd_bound:+.6f} vs measured min "
          f"{series.odd_overlaps.min():+.6f}")
    if report.even_vacuous or report.odd_vacuous:
        print("  (a negative bound is vacuous: it certifies nothing)")

print("\nfixed subspace of U^2 = flip subspace + uniform span:")
for g in (complete_graph(5), cycle_graph(4)):
    basis = one_eigenspace_u2(g)
    # one flip state per independent cycle of the bipartite double
    flip_dim = g.arc_count - 2 * g.n + bipartite_double(g).num_components
    part = bipartite_partition(g)
    uniform_dim = 1 if part is None else 2
    print(f"  {g.name}: eigenspace dim {basis.shape[1]} "
          f"= flip dim {flip_dim} + uniform dim {uniform_dim}")
    projector = basis @ basis.T
    flip_proj = np.column_stack(
        [flip_projection(ArcState(g, column))[1].amplitudes.real for column in np.eye(g.arc_count)]
    )
    sigmas = (
        [uniform_state(g)]
        if part is None
        else [uniform_state(g, part.partite_x), uniform_state(g, part.partite_y)]
    )
    uniform_proj = sum(np.outer(s.amplitudes.real, s.amplitudes.real) for s in sigmas)
    gap = np.max(np.abs(projector - (flip_proj + uniform_proj)))
    print(f"    projector difference (entrywise): {gap:.2e}")

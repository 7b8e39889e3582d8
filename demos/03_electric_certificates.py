#!/usr/bin/env python3
"""Certifying oscillation with a resistor network.

The flip component of a starting state is hard to compute directly on big
graphs, but it can be lower-bounded classically.  Put the state on the
bipartite double graph: zero-amplitude arcs become unit resistors, nonzero
amplitudes become current injections.  The Kirchhoff current completes the
state into a circulation (equivalently, a flip state) whose squared norm is
1 + P, where P is the dissipated power, so

    alpha_sq >= 1 / (1 + P),

with equality when the injection sits on a single arc, on every graph:
then 1 / (1 + P) = 1 - omega_double(a_out, b_in).  Low power - and thus low
effective resistance - certifies oscillation without ever diagonalizing
anything.
"""

import numpy as np

from oscillwalk import (
    ArcState,
    basis_arc_state,
    bipartite_double,
    bounds_from_power,
    circulation_to_flip,
    complete_graph,
    completed_circulation,
    flip_projection,
    hypercube_graph,
    network_from_state_double,
    overlap,
    parallel_resistance_identity,
    random_regular_graph,
    resistance_distance,
    solve_network,
)

print("the smallest interesting example: K_3 with starting state |ab>")
g = complete_graph(3)
psi = basis_arc_state(g, 0, 1)
net = network_from_state_double(psi)
print(f"  double graph nodes: {net.node_count}, unit resistors: {len(net.resistor_edges)}")
print("  (the five resistors form a path from b_in to a_out; the sixth")
print("   position is the injected edge itself)")
sol = solve_network(net)
print(f"  dissipated power P = {sol.power:.6f} (a 5-resistor series path)")
alpha_lower, overlap_lower = bounds_from_power(sol.power, "double")
print(f"  alpha_sq lower bound 1/(1+P) = {alpha_lower:.6f}")
print(f"  return-overlap bound (1-P)/(1+P) = {overlap_lower:.6f} (vacuous here)")

circ = completed_circulation(g, psi, sol)
phi = circulation_to_flip(g, circ)
print(f"  completed flip state: ||phi'||^2 = {phi.norm()**2:.6f} = 1 + P")
print(f"  <psi|phi'> = {overlap(psi, phi).real:.6f}")

print("\nequality for a single arc on any graph (current = closest flip state):")
for g in (complete_graph(4), hypercube_graph(3), random_regular_graph(12, 3, seed=5)):
    psi = basis_arc_state(g, *g.edges[0])
    sol = solve_network(network_from_state_double(psi))
    lower, _ = bounds_from_power(sol.power, "double")
    exact, _ = flip_projection(psi)
    print(f"  {g.name}: 1/(1+P) = {lower:.9f}, exact projection = {exact:.9f}")

print("\nthe resistor network is the double graph minus one edge, so the")
print("double-graph resistance obeys the parallel formula 1 - 1/(1+P):")
for g in (complete_graph(3), hypercube_graph(3)):
    psi = basis_arc_state(g, 0, 1)
    sol = solve_network(network_from_state_double(psi))
    omega = resistance_distance(bipartite_double(g), 0, g.n + 1)
    print(f"  {g.name}: omega(a_out, b_in) = {omega:.9f}, "
          f"parallel formula gives {parallel_resistance_identity(sol.power):.9f}")

print("\ninfeasible current = no certificate:")
g = complete_graph(3)
amps = basis_arc_state(g, 0, 1).amplitudes + basis_arc_state(g, 1, 0).amplitudes
sym = ArcState(g, amps / np.sqrt(2))
sol = solve_network(network_from_state_double(sym))
print(f"  symmetric state (|ab>+|ba>)/sqrt(2): feasible={sol.feasible}, power={sol.power}")
print(f"  bound pair: {bounds_from_power(sol.power, 'double')} (vacuous by construction)")

"""Grover-coined discrete-time quantum walks on regular graphs, with
oscillatory-localization certificates from flip/uniform decompositions and
classical electric networks."""

from .graphs import (
    Graph,
    GraphError,
    Bipartition,
    PathFamily,
    build_graph,
    complete_graph,
    complete_bipartite_graph,
    cycle_graph,
    hypercube_graph,
    torus_graph,
    random_regular_graph,
    graph_from_edge_list,
    bipartite_partition,
    bipartite_double,
    edge_disjoint_paths,
)
from .walk import (
    ArcState,
    VertexAverages,
    basis_arc_state,
    uniform_state,
    vertex_averages,
    apply_coin,
    apply_shift,
    walk_step,
    evolve,
    flip_transform,
    overlap,
    is_flip_state,
    is_selfflip_state,
    ensure_normalized,
    dense_walk_matrix,
    write_state_csv,
    read_state_csv,
)
from .oscillation import (
    CapacityError,
    Decomposition,
    BoundReport,
    Certificate,
    OverlapSeries,
    flip_projection,
    uniform_coefficients,
    decompose,
    certify,
    oscillation_bounds,
    measured_overlaps,
    one_eigenspace_u2,
)
from .electric import (
    ConvergenceError,
    ElectricNetwork,
    FlowSolution,
    Circulation,
    network_from_state_double,
    network_from_selfflip_state,
    solve_network,
    resistance_distance,
    resistance_distances,
    flip_to_circulation,
    circulation_to_flip,
    completed_circulation,
    bounds_from_power,
    parallel_resistance_identity,
    paths_resistance_bound,
    localization_verdict,
)
from .complete import (
    SevenDimModel,
    TableRow,
    walk_angle,
    seven_dim_unitary,
    amp_ab,
    amp_ba,
    table_rows,
)

__version__ = "0.1.0"

"""Incidence list colouring of graphs.

Exact backtracking engines for small instances, constructive
polynomial-time procedures for square grids, trees, Halin graphs,
generalized coronae of cycles, cactuses and Hamiltonian cubic graphs, and
a fuzzing harness that certifies the guaranteed list-size bounds on
randomized assignments.
"""

from .graphs import (
    Graph,
    GraphError,
    Incidence,
    IncidenceColouring,
    IncolourError,
    InputError,
    ListAssignment,
    Verdict,
    incidence_adjacent,
    incidence_graph,
    incidence_id,
    incidences,
    validate_colouring,
)
from .families import (
    FamilySpec,
    cactus_cycles,
    gen_basic,
    gen_cactus,
    gen_corona,
    gen_cycle_power,
    gen_grid,
    gen_halin,
    gen_ham_cubic,
    gen_random_tree,
    gen_tree,
    generate,
)
from .solver import (
    ChoosabilityResult,
    ChiUnknown,
    DegeneracyOrder,
    SolveResult,
    SolverConfig,
    check_choosability_exhaustive,
    degeneracy_order,
    greedy_degenerate,
    incidence_chromatic_number,
    solve_list_colouring,
)
from .constructive import (
    ConstructiveReport,
    construct,
    guaranteed_bound,
)
from .harness import (
    CampaignReport,
    FuzzCampaign,
    random_list_assignment,
    regression_chi,
    run_campaign,
)

__version__ = "0.1.0"

"""Toroidal n-queens hypergraph toolkit.

The toroidal board of side n is a 4-partite 4-uniform hypergraph whose
perfect matchings are the toroidal n-queens solutions.  This package
provides the board model (torq.board), the integer edge lattice with
exact membership tests and an independent elimination oracle
(torq.lattice), constructive decomposition of lattice members into
signed edge sets and matching pairs (torq.decomp), the random greedy
matching process with trajectory envelopes and counting estimators
(torq.greedy), exact solvers and the classical-board extension
construction (torq.solvers), and a command-line surface (torq.cli).
"""

from .board import (
    BoardKind,
    Edge,
    Interval,
    Matching,
    Part,
    TorusGraph,
    Vertex,
    attacks,
    centered,
    square,
    verify_matching,
    whole_board,
)
from .decomp import (
    Cascade,
    DecompositionResult,
    ZeroSumConfig,
    bidc_reduce,
    build_cascade,
    cover_leave,
    decompose_bounded,
    make_config,
    push_down,
    to_matching_pair,
    zero_sum_support,
)
from .errors import CapacityError, PreconditionError, VerificationError
from .greedy import (
    Envelope,
    GreedyTrace,
    count_estimate,
    envelope_check,
    knuth_count_estimator,
    parity_track,
    run_greedy,
)
from .lattice import (
    SignedEdgeSet,
    SupportVector,
    check_lattice_queens,
    check_lattice_semiqueens,
    check_sublattice_S,
    hnf_oracle,
    in_lattice_queens,
    in_sublattice_S,
    shadow,
    sv,
)
from .solvers import (
    WSet,
    build_wset,
    count_classical,
    count_semiqueens,
    count_toroidal,
    extend_classical,
    extend_classical_search,
    max_partial_toroidal,
    monsky_value,
    verify_placement,
    verify_tstar_lattice,
    wset_candidates,
    wset_from_tuples,
)

__version__ = "0.1.0"

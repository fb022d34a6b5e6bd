"""Exact-arithmetic weighted graph zeta functions, twisted Alexander
polynomials, and the rewrite systems that preserve them."""

from .laurent import (
    LaurentPoly,
    PolyMatrix,
    TruncatedSeries,
    parse_laurent,
    series_det,
    series_det_inverse,
)
from .freegroup import (
    Generator,
    GroupRingElt,
    Word,
    apply_phi,
    fox_derivative,
    parse_word,
)
from .presentation import (
    BasedPresentation,
    InvalidMove,
    TietzeMove,
    build_group_weighted_graph,
    check_assumption,
    parse_presentation,
    rebase,
    solve_for_base,
    tietze_apply,
)
from .wgraph import (
    Edge,
    InvalidStep,
    TransformStep,
    WeightedDigraph,
    adjacency_matrix,
    apply_step,
    cycle_classes,
    euler_check,
    euler_product_oracle,
    parse_graph,
    phi_image,
    verify_equivalence,
    zeta_reciprocal,
)
from .knot import (
    Crossing,
    KnotDiagram,
    ReidemeisterMove,
    Representation,
    alexander_setup,
    parse_gauss,
    parse_pd,
    reidemeister_apply,
    twisted_alexander,
    wirtinger_presentation,
)
from .quandle import (
    AlexanderPairTable,
    CrossingWeights,
    FiniteQuandle,
    QuandleColoring,
    alexander_pair_check,
    dihedral_quandle,
    derived_star,
    enumerate_colorings,
    f_twisted_weights,
    holonomy_check,
    quandle_check,
    quandle_weighted_graph,
    recover_pair,
    trivial_quandle,
)

__version__ = "0.1.0"

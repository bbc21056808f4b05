"""Thresholds and constructive k-star decompositions for d-regular graphs."""

__version__ = "0.1.0"

from .entropy import (  # noqa: F401
    LabelDistribution,
    ThresholdReport,
    alpha_dk,
    alpha_fc_estimate,
    alpha_fm,
    alpha_lower_ref,
    avg_degree_ceiling,
    avg_degree_ceiling_inv,
    coupling_entropy_gap,
    first_moment_rate,
    h,
    ind_set_rate,
    kappa,
    pair_rate,
    shannon_entropy,
    subset_rate,
    threshold_report,
)
from .certify import (  # noqa: F401
    CertifyInput,
    CertifyResult,
    beta_max,
    certify,
    certify_degree,
    check_condition,
    derive_dhat,
    sweep,
)
from .graphs import (  # noqa: F401
    Graph,
    cheeger_bruteforce,
    check_thin,
    config_model_sample,
    cut_edges,
    greedy_independent_set,
    induced_edges,
    is_simple,
    read_graph,
    sample_simple,
    write_graph,
)
from .decomp import (  # noqa: F401
    Orientation,
    StarDecomposition,
    ThinIndependentSet,
    decompose,
    in_regular_orientation,
    orientation_feasible_bruteforce,
    read_decomposition,
    relief_trim,
    stars_from_orientation,
    thin_down,
    verify_decomposition,
    write_decomposition,
)

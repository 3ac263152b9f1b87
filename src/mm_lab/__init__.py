"""mm-lab: numerics for finite metric measure spaces.

Metric-preserving function descriptors with isotonicity diagnostics, product
spaces, concentration invariants, Prokhorov / Ky Fan / box distances, and the
gallery of spaces used by the experiment suites.
"""

__version__ = "0.1.0"

from .core import (
    FiniteMMSpace,
    LipFunction,
    RealDistribution,
    as_lip,
    lip_constant,
    load_space,
    mcshane_extend,
    mm_isomorphic,
    project_to_lip1,
    pushforward,
    random_metric_space,
    real_distribution,
    save_space,
    space_from_json,
    space_to_json,
    validate_space,
)
from .mpf import (
    MPF,
    GALLERY_TOKENS,
    builtin,
    check_triangle_triplets,
    classify_sequence,
    combine,
    defect_table,
    eval_mpf,
    family,
    family_limit,
    make_mulholland,
    mpf_from_json,
    mpf_to_json,
)
from .invariants import (
    Estimate,
    concentration_function,
    kappa_distance,
    levy_mean,
    levy_radius,
    observable_diameter,
    partial_diameter,
)
from .product import ProductSpec, levy_projection, lp_product, metric_transform, product
from .distances import (
    ConcentrationCertificate,
    IsoCertificate,
    SubtransportPlan,
    box_distance,
    concentration_certificate,
    epsilon_mm_iso_search,
    ky_fan,
    lip_up_to_eps,
    prokhorov,
    prokhorov_bruteforce,
    prokhorov_real,
)
from .gallery import (
    CounterexampleBundle,
    GluedSpaceBundle,
    SphereSample,
    build_counterexample_1dim,
    build_counterexample_2dim,
    example_5_1,
    four_point_Z,
    sample_sphere,
    two_point,
)
from .batteries import (
    BATTERY_NAMES,
    box_product_check,
    lprok_product_check,
    run_inequality_battery,
)
from .experiments import ExperimentSpec, SuiteResult, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]

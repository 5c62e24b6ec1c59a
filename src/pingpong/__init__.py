"""Freeness certificates for matrix groups over local fields."""

# the one source of the version: the packaging and the reports read it
__version__ = "0.1.0"

from .cartan import (
    CartanTriple,
    SLMatrix,
    apply_hyperplane,
    apply_point,
    bilip_constant,
    cartan_decompose,
    diagonal,
    exterior_power,
    identity,
)
from .contraction import (
    ContractionCert,
    ProximalCert,
    contraction_coefficient,
    contraction_data,
    lipschitz_outside,
    proximal_cert,
    ratio_from_lipschitz,
    ratio_upper_bound_from_contraction,
    verify_contracting,
)
from .errors import (
    CertificationError,
    ConstructionError,
    DecompositionError,
    DomainError,
    InputError,
    NoSeparatorError,
    NotContractingError,
    PrecisionExhaustedError,
    PreconditionError,
    UndecidedError,
)
from .fields import (
    COMPLEX,
    DEFAULT_PADIC_PRECISION,
    REAL,
    FieldSpec,
    Kind,
    PadicScalar,
    abs_value,
    padic,
    relative_tolerance,
    valuation,
)
from .liegen import (
    LieElement,
    SubalgebraBasis,
    dense_pair_test,
    derived_series,
    generated_subalgebra,
    matrix_exp,
    matrix_log,
)
from .pingpong import (
    PingPongCert,
    ProximalElement,
    VeryContractingElement,
    Word,
    build_pingpong_tuple,
    certify_free_generators,
    freeness_falsifier,
    make_proximal,
    make_very_contracting,
    make_very_proximal,
    separation_table,
    tighten_very_contracting,
    verify_pingpong,
)
from .projective import (
    ProjHyperplane,
    ProjPoint,
    canonical_rows,
    dist_to_hyperplane,
    proj_dist,
)
from .separation import (
    Configuration,
    NotSeparatingWarning,
    RadiusEstimate,
    SeparatingSet,
    best_separator,
    estimate_radius,
    greedy_separating_set,
    reduced_words,
    sample_configuration,
    verify_separating_for,
)

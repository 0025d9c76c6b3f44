"""Weighted spaces of entire functions from matrix triples, their
Hermite-type generator families, and numerical verification of the
identities those families satisfy."""

from .errors import (
    ConfigError,
    DimensionMismatch,
    EigFailure,
    IncompleteFamily,
    IntertwinerInvalid,
    MExponentMismatch,
    NonIntegrableWeight,
    NonPositiveCI,
    NonSymmetricA,
    NonSymmetricC,
    RhoOutOfRange,
    SingularB,
    SymmetryViolation,
)
from .gausspoly import (
    GaussPoly,
    LinearDiffOp,
    PolyC,
    annihilation_ops,
    apply_op,
    coeff_distance,
    creation_ops,
    evaluate,
    ground_state,
    hamiltonian_apply,
    hermite_family,
    mi_factorial,
    multi_indices,
    rodrigues,
    xi_ops,
)
from .integrals import (
    MomentCache,
    RealQuadraticForm,
    adjoint_residual,
    combined_form,
    expand_in_family,
    gram_matrix,
    hphi_inner,
    hphi_norm,
    make_moment_cache,
)
from .model import (
    GeneratorData,
    PhaseTriple,
    WeightData,
    build_generator,
    ccr_matrix,
    compute_weight_data,
    condition1_margin,
    eq2202_residual,
    random_generator,
    random_phase_triple,
    sq_closed_form_residual,
    validate_phase_triple,
    validate_intertwiner,
    with_unitary,
)
from .pipeline import (
    RunConfig,
    VerificationReport,
    decode_gauss_poly,
    encode_gauss_poly,
    example_config,
    example_expected,
    example_triple,
    run_example,
    run_verify,
)
from .transform import (
    KernelParams,
    MAX_NODES,
    QuadSpec,
    TestFunction,
    hermite_images,
    image_exponent,
    inverse_transform,
    isometry_residual,
    kernel_eval,
    kernel_reproduce,
    make_kernel_params,
    round_trip_error,
    transform,
    transform_batch,
    transform_image,
)

__version__ = "0.1.0"

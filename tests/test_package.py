"""The package namespace: every exported name, whichever module loads first.

``import sbhermite`` binds the names of ``errors``, ``config`` and
``model`` and defers the verification engine to its first use, so each
check runs in a fresh interpreter after one of three first imports.
"""

import json

import pytest

from helpers import fresh_python

#: defining module -> the names the package exports from it
EXPORTS = {
    "errors": ["ConfigError", "DimensionMismatch", "EigFailure", "IncompleteFamily",
               "IntertwinerInvalid", "MExponentMismatch", "NonIntegrableWeight",
               "NonPositiveCI", "NonSymmetricA", "NonSymmetricC", "RhoOutOfRange",
               "SingularB", "SymmetryViolation"],
    "config": ["MAX_NODES", "RunConfig"],
    "model": ["GeneratorData", "PhaseTriple", "WeightData", "build_generator", "ccr_matrix",
              "compute_weight_data", "condition1_margin", "eq2202_residual",
              "random_generator", "random_phase_triple", "sq_closed_form_residual",
              "validate_phase_triple", "validate_intertwiner", "with_unitary"],
    "gausspoly": ["GaussPoly", "LinearDiffOp", "PolyC", "annihilation_ops", "apply_op",
                  "coeff_distance", "creation_ops", "evaluate", "ground_state",
                  "hamiltonian_apply", "hermite_family", "mi_factorial", "multi_indices",
                  "rodrigues", "xi_ops"],
    "integrals": ["MomentCache", "RealQuadraticForm", "adjoint_residual", "combined_form",
                  "expand_in_family", "gram_matrix", "hphi_inner", "hphi_norm",
                  "make_moment_cache"],
    "pipeline": ["VerificationReport", "decode_gauss_poly", "encode_gauss_poly",
                 "example_config", "example_expected", "example_triple", "run_example",
                 "run_verify"],
    "transform": ["KernelParams", "QuadSpec", "TestFunction", "image_exponent",
                  "inverse_transform", "isometry_residual", "kernel_eval", "kernel_reproduce",
                  "make_kernel_params", "round_trip_error", "transform", "transform_batch",
                  "transform_image"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

FIRST_IMPORTS = {
    "package": "import sbhermite",
    "pipeline": "import sbhermite.pipeline",
    "transform": "importlib.import_module('sbhermite.transform')",
}

#: each check sets ``wrong``, the exported names it finds at fault
CHECKS = {
    "same-objects": (
        "wrong = [name for module, names in EXPORTS.items() for name in names\n"
        "         if getattr(sb, name)\n"
        "         is not getattr(importlib.import_module('sbhermite.' + module), name)]\n"
    ),
    "transform-is-the-function": (
        "module = importlib.import_module('sbhermite.transform')\n"
        "wrong = [] if sb.transform is module.transform else ['transform']\n"
    ),
    "star-import": (
        "star = {}\n"
        "exec('from sbhermite import *', star)\n"
        "wrong = [name for name in NAMES if star.get(name) is not getattr(sb, name)]\n"
        "wrong += sorted(set(sb.__all__) ^ set(NAMES))\n"
    ),
    "dir": "wrong = sorted(set(NAMES) - set(dir(sb)))\n",
}


@pytest.mark.parametrize("first", FIRST_IMPORTS)
@pytest.mark.parametrize("check", CHECKS)
def test_namespace(first, check):
    script = (
        "import importlib, json, sys\n"
        f"{FIRST_IMPORTS[first]}\n"
        "import sbhermite as sb\n"
        "EXPORTS = json.loads(sys.argv[1])\n"
        "NAMES = sorted(name for names in EXPORTS.values() for name in names)\n"
        f"{CHECKS[check]}"
        "print(json.dumps(wrong))\n"
    )
    assert fresh_python(script, json.dumps(EXPORTS)) == []

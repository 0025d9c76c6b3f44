"""Weighted spaces of entire functions from matrix triples, their
Hermite-type generator families, and numerical verification of the
identities those families satisfy.

Importing the package loads ``errors``, ``config`` and ``model`` (with
``matrices``) and binds their names.  The verification engine,
``gausspoly``, ``integrals``, ``pipeline`` and ``transform``, loads on the
first access to any of its names, which binds them all; importing one of
its modules binds that module's names.  So a command that never runs the
engine never compiles it.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "ConfigError",
        "DimensionMismatch",
        "EigFailure",
        "IncompleteFamily",
        "IntertwinerInvalid",
        "MExponentMismatch",
        "NonIntegrableWeight",
        "NonPositiveCI",
        "NonSymmetricA",
        "NonSymmetricC",
        "RhoOutOfRange",
        "SingularB",
        "SymmetryViolation",
    ),
    "config": ("MAX_NODES", "RunConfig"),
    "model": (
        "GeneratorData",
        "PhaseTriple",
        "WeightData",
        "build_generator",
        "ccr_matrix",
        "compute_weight_data",
        "condition1_margin",
        "eq2202_residual",
        "random_generator",
        "random_phase_triple",
        "sq_closed_form_residual",
        "validate_phase_triple",
        "validate_intertwiner",
        "with_unitary",
    ),
    "gausspoly": (
        "GaussPoly",
        "LinearDiffOp",
        "PolyC",
        "annihilation_ops",
        "apply_op",
        "coeff_distance",
        "creation_ops",
        "evaluate",
        "ground_state",
        "hamiltonian_apply",
        "hermite_family",
        "mi_factorial",
        "multi_indices",
        "rodrigues",
        "xi_ops",
    ),
    "integrals": (
        "MomentCache",
        "adjoint_residual",
        "expand_in_family",
        "gram_matrix",
        "hphi_inner",
        "hphi_norm",
        "make_moment_cache",
    ),
    "pipeline": (
        "VerificationReport",
        "decode_gauss_poly",
        "encode_gauss_poly",
        "example_config",
        "example_expected",
        "example_triple",
        "run_example",
        "run_verify",
    ),
    "transform": (
        "KernelParams",
        "QuadSpec",
        "TestFunction",
        "image_exponent",
        "inverse_transform",
        "isometry_residual",
        "kernel_eval",
        "kernel_reproduce",
        "make_kernel_params",
        "round_trip_error",
        "transform",
        "transform_batch",
        "transform_image",
    ),
}
_ENGINE = ("gausspoly", "integrals", "pipeline", "transform")
_LAZY = {*_ENGINE, *(name for module in _ENGINE for name in _EXPORTS[module])}

__all__ = [name for names in _EXPORTS.values() for name in names]


class _Package(types.ModuleType):
    """The package module, with each module's names bound beside it and
    the engine loaded on first use."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, types.ModuleType) and name in _EXPORTS:
            # the import system binds a submodule here once it has run.  Its
            # names follow at once, while they are still the module's own
            # (a first access later could find a patched module), and the
            # function transform replaces the module sbhermite.transform
            for attr in _EXPORTS[name]:
                super().__setattr__(attr, getattr(value, attr))

    def __getattr__(self, name):
        if name not in _LAZY:
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        for module in _ENGINE:
            importlib.import_module(f"{self.__name__}.{module}")
        return vars(self)[name]

    def __dir__(self):
        return sorted({*vars(self), *_LAZY})


sys.modules[__name__].__class__ = _Package

from . import config, errors, model  # noqa: E402,F401  (binds their names)

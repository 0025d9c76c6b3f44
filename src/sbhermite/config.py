"""Run configuration: the v1 config schema, its parsing and its encoding.

A config file names the defining triple (A, B, C), rho as a fraction of
lambda_0, the intertwiner X, the family degree, the adjoint stage's seed,
the quadrature nodes and tolerance overrides.  ``RunConfig.from_dict``
checks every field and raises a ``ConfigError`` naming the first one that
violates the schema.  This module needs only numpy and ``errors``, so a
command that only reads a config (``sbhermite validate``) loads none of the
verification engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = "v1"

#: the keys a v1 config may hold; ``X`` holds one of ``phases`` and
#: ``matrix``, ``quadrature`` only ``nodes``
CONFIG_KEYS = ("version", "n", "A", "B", "C", "rho_fraction", "X", "max_degree",
               "seed", "quadrature", "tolerances")

DEFAULT_TOLERANCES = {
    "ccr": 1e-10,
    "eq2202": 1e-10,
    "symmetry_Q": 1e-10,
    "symmetry_S": 1e-10,
    "sq_closed_form": 1e-10,
    "condition1_slack": 1e-12,
    "gram": 1e-8,
    "eigen": 1e-9,
    "rodrigues": 1e-9,
    "adjoint": 1e-8,
    "completeness": 1e-8,
    "isometry": 1e-8,
    "golden": 1e-12,
}

#: largest valid rule: numpy's hermgauss gives zero weights at 371 nodes, NaN beyond
MAX_NODES = 370


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _known_keys(obj: dict, prefix: str, keys) -> None:
    """ConfigError naming the first key of ``obj`` outside ``keys``."""
    for key in obj:
        _require(key in keys, f"{prefix}{key}", "unknown key")


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether a parsed JSON value is a finite number of the given types;
    JSON true and false parse as bool, which Python counts as an int, and
    NaN and Infinity parse as floats."""
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _parse_complex(value, path: str) -> complex:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        path,
        "complex entries must be [re, im] pairs",
    )
    re_, im_ = value
    _require(
        _is_number(re_) and _is_number(im_),
        path,
        "re and im must be finite numbers",
    )
    return complex(re_, im_)


def _parse_matrix(value, n: int, path: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == n, path, f"expected {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        _require(
            isinstance(row, list) and len(row) == n, f"{path}[{i}]", f"expected {n} entries"
        )
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{path}[{i}][{j}]")
    return out


def encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    rho_fraction: float
    X: np.ndarray
    max_degree: int
    seed: int
    nodes: int
    tolerances: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _require(isinstance(raw, dict), "$", "config must be an object")
        _known_keys(raw, "", CONFIG_KEYS)
        version = raw.get("version", SCHEMA_VERSION)
        _require(version == SCHEMA_VERSION, "version", f"expected {SCHEMA_VERSION!r}")
        n = raw.get("n")
        _require(_is_number(n, int) and n >= 1, "n", "must be a positive integer")
        mats = {}
        for name in ("A", "B", "C"):
            _require(name in raw, name, "missing matrix")
            mats[name] = _parse_matrix(raw[name], n, name)
        frac = raw.get("rho_fraction")
        _require(
            _is_number(frac) and 0.0 < frac < 1.0,
            "rho_fraction",
            "must lie strictly inside (0,1) so that 0<rho<lambda0",
        )
        xspec = raw.get("X", {"phases": [0.0] * n})
        _require(isinstance(xspec, dict), "X", "must be an object")
        _require(("phases" in xspec) != ("matrix" in xspec), "X",
                 "expected 'phases' or 'matrix', exactly one")
        _known_keys(xspec, "X.", ("phases", "matrix"))
        if "phases" in xspec:
            phases = xspec["phases"]
            _require(
                isinstance(phases, list) and len(phases) == n,
                "X.phases",
                f"expected {n} angles",
            )
            _require(
                all(_is_number(p) for p in phases),
                "X.phases",
                "angles must be finite numbers",
            )
            x = np.diag(np.exp(1j * np.asarray(phases, dtype=float)))
        else:
            x = _parse_matrix(xspec["matrix"], n, "X.matrix")
        max_degree = raw.get("max_degree", 3)
        _require(
            _is_number(max_degree, int) and max_degree >= 0,
            "max_degree",
            "must be a nonnegative integer",
        )
        seed = raw.get("seed", 0)
        _require(_is_number(seed, int) and seed >= 0, "seed", "must be a nonnegative integer")
        quadrature = raw.get("quadrature", {})
        _require(isinstance(quadrature, dict), "quadrature", "must be an object")
        _known_keys(quadrature, "quadrature.", ("nodes",))
        nodes = quadrature.get("nodes", 64)
        _require(
            _is_number(nodes, int) and 4 <= nodes <= MAX_NODES,
            "quadrature.nodes",
            f"must be an integer in [4, {MAX_NODES}]",
        )
        tols = dict(DEFAULT_TOLERANCES)
        overrides = raw.get("tolerances", {})
        _require(isinstance(overrides, dict), "tolerances", "must be an object")
        for key, val in overrides.items():
            _require(key in tols, f"tolerances.{key}", "unknown tolerance name")
            _require(
                _is_number(val) and val > 0,
                f"tolerances.{key}",
                "must be a positive finite number",
            )
            tols[key] = float(val)
        return cls(
            n=n,
            A=mats["A"],
            B=mats["B"],
            C=mats["C"],
            rho_fraction=float(frac),
            X=x,
            max_degree=max_degree,
            seed=seed,
            nodes=nodes,
            tolerances=tols,
        )

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        return cls.from_dict(read_config(path))


def read_config(path: str):
    """The raw, not yet validated JSON content of a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"$: cannot read config {path}: {exc}") from exc

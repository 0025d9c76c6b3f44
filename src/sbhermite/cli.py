"""Command line entry point.

Subcommands: validate, construct, verify, example, transform.  Exit status
is 0 on pass, 1 on verification failure or module error, 2 on config error.
Each subcommand imports the engine modules it runs when it runs, so
``validate`` and ``construct`` without ``--family`` load only ``config``,
``errors``, ``matrices`` and ``model`` of the package.
A ``verify`` or ``example`` run whose stage raises still writes its partial
report, naming the failed stage and the error type, and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .config import RunConfig, _is_integer, encode_matrix, read_config
from .errors import ConfigError, StageFailure
from .model import build_generator, compute_weight_data, validate_phase_triple

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

#: ``--nodes`` stays for the scripts that pass it
NODES_HELP = "sets quadrature.nodes, validated; changes no value, every transform is exact"


def _emit(payload: dict, out: str | None):
    """Write ``payload`` as one line of JSON with sorted keys, to ``out``
    or to standard output: compact, so that it goes through the C encoder
    (an indent selects the pure-Python one).  The newline is written on its
    own: with a copy of the text and its newline per call, the peak RSS of
    a process writing 1600 reports crept up by 0.17 MB; with two writes it
    stays flat."""
    text = json.dumps(payload, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _cmd_validate(args) -> int:
    config = RunConfig.from_json(args.config)
    pt = validate_phase_triple(config.A, config.B, config.C)
    wd = compute_weight_data(pt)
    _emit(
        {
            "n": pt.n,
            "c_phi": pt.c_phi,
            "det_B_abs": pt.det_B_abs,
            "C_I_eigenvalues": pt.C_I_eigenvalues.tolist(),
            "lambda": [float(v) for v in wd.lam],
            "valid": True,
        },
        args.out,
    )
    return EXIT_PASS


def _load_config(path: str, rho_fraction=None, max_degree=None, nodes=None) -> RunConfig:
    """Parse a config file with command-line overrides applied to the raw
    dict first, so every override passes the same schema checks."""
    raw = read_config(path)
    if isinstance(raw, dict):
        for key, value in (("rho_fraction", rho_fraction), ("max_degree", max_degree)):
            if value is not None:
                raw[key] = value
        quadrature = raw.get("quadrature", {})
        if nodes is not None and isinstance(quadrature, dict):
            raw["quadrature"] = {**quadrature, "nodes": nodes}
    return RunConfig.from_dict(raw)


def _cmd_construct(args) -> int:
    config = _load_config(args.config, rho_fraction=args.rho_fraction)
    pt = validate_phase_triple(config.A, config.B, config.C)
    wd = compute_weight_data(pt)
    gen = build_generator(wd, config.rho_fraction * wd.lam0, config.X)
    payload = {
        "n": pt.n,
        "rho2": gen.rho2,
        "mu2": [float(v * v) for v in gen.mu],
        "lambda": [float(v) for v in wd.lam],
        "Q": encode_matrix(gen.Q),
        "S": encode_matrix(gen.S),
        "S_plus_Q": encode_matrix(gen.SQ),
        "xi_coeff": encode_matrix(gen.xi_coeff),
    }
    if args.family is not None:
        if not _is_integer(args.family, 0):
            raise ConfigError("--family: must be a nonnegative degree")
        from .gausspoly import hermite_family
        from .pipeline import encode_gauss_poly

        with np.errstate(over="ignore", invalid="ignore"):  # refused below by name
            fam = hermite_family(wd, gen, args.family)
        bad = next((a for a, m in fam.items() if not np.isfinite(m.poly.coeffs).all()), None)
        if bad is not None:
            raise ValueError(f"--family: member {bad} has coefficients that are not finite")
        payload["family"] = {
            ",".join(map(str, alpha)): encode_gauss_poly(member)
            for alpha, member in fam.items()
        }
    _emit(payload, args.out)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    from .pipeline import run_verify

    config = _load_config(
        args.config, rho_fraction=args.rho_fraction, max_degree=args.max_degree
    )
    report = run_verify(config)
    _emit(report.to_dict(), args.out)
    return EXIT_PASS if report.overall_pass else EXIT_FAIL


def _cmd_example(args) -> int:
    from .pipeline import run_example

    report = run_example(
        args.name, args.s, max_degree=args.max_degree, nodes=args.nodes
    )
    _emit(report.to_dict(), args.out)
    return EXIT_PASS if report.overall_pass else EXIT_FAIL


def _parse_points(text: str, n: int) -> np.ndarray:
    """The ``--z`` points as rows of a (points, n) complex array."""
    points = []
    for chunk in text.split(";"):
        parts = chunk.strip().split()
        if len(parts) != n:
            raise ConfigError(
                f"--z: point {chunk!r} must have {n} whitespace-separated components"
            )
        comps = []
        for part in parts:
            pieces = part.split(",")
            if len(pieces) != 2:
                raise ConfigError(f"--z: component {part!r} must be re,im")
            try:
                re_, im_ = float(pieces[0]), float(pieces[1])
            except ValueError as exc:
                raise ConfigError(f"--z: component {part!r} is not numeric") from exc
            if not (math.isfinite(re_) and math.isfinite(im_)):
                raise ConfigError(f"--z: component {part!r} is not finite")
            comps.append(complex(re_, im_))
        points.append(comps)
    return np.array(points, dtype=complex)


def _cmd_transform(args) -> int:
    from .gausspoly import _multi_index, mi_factorial
    from .transform import QuadSpec, TestFunction, transform

    config = _load_config(args.config, nodes=args.nodes)
    pt = validate_phase_triple(config.A, config.B, config.C)
    try:
        alpha = _multi_index([int(v) for v in args.hermite.split(",")], pt.n)
    except ValueError as exc:  # DimensionMismatch is a ValueError too
        raise ConfigError(f"--hermite: expected {pt.n} nonnegative integers") from exc
    try:
        mi_factorial(alpha)  # T h_alpha is scaled by 1 / sqrt(alpha!)
    except ValueError as exc:
        raise ConfigError(f"--hermite: {exc}") from exc
    u = TestFunction.hermite_basis(alpha)
    points = _parse_points(args.z, pt.n)
    values = transform(pt, u, points, QuadSpec(nodes=config.nodes))
    rows = [
        {
            "z": [[float(c.real), float(c.imag)] for c in z],
            "value": [float(value.real), float(value.imag)],
        }
        for z, value in zip(points, values)
    ]
    _emit({"hermite": list(alpha), "points": rows}, args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbhermite",
        description=(
            "Construct weighted spaces of entire functions from a matrix "
            "triple, build their Hermite-type generator families, and verify "
            "the algebraic and analytic identities numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a defining triple")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("construct", help="build generator matrices")
    p.add_argument("--config", required=True)
    p.add_argument("--rho-fraction", type=float, default=None)
    p.add_argument("--family", type=int, default=None,
                   help="also emit family members up to this total degree")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--config", required=True)
    p.add_argument("--rho-fraction", type=float, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("example", help="reproduce a golden example family")
    p.add_argument("--name", required=True, choices=("em", "ghs"))
    p.add_argument("--s", required=True, type=float)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--nodes", type=int, default=64, help=NODES_HELP)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_example)

    p = sub.add_parser("transform", help="evaluate the transform at points")
    p.add_argument("--config", required=True)
    p.add_argument("--hermite", default="0", help="comma-separated multi-index")
    p.add_argument("--z", required=True, help="points 're,im re,im; re,im ...'")
    p.add_argument("--nodes", type=int, default=None, help=NODES_HELP)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_transform)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: building it costs
    about ten times a ``parse_args``, which returns a fresh Namespace per
    call and leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageFailure as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        _emit(exc.report.to_dict(), args.out)
        return EXIT_FAIL
    except Exception as exc:  # noqa: BLE001 - surface module errors as failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

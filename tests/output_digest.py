"""One SHA-256 over the program's numerical outputs, for bit-identity checks.

Run from the repository root:

    PYTHONPATH=src python tests/output_digest.py [--lines] [--against FILE]

The digest covers the hex (``float.hex``) of every residual and metric, and
every verdict, of the reports (timings excluded) of

- the acceptance configs: the 50 random triples of acceptance test 3
  (``default_rng(20260301)``, n = 1-3, their X phases), verified at degree 3;
- both golden examples, ``run_example`` for ``em`` and ``ghs`` at
  s = 0.3, 0.5 and 0.7;
- the verify and example operations of the benchmark's verify-deep and
  verify-wide inputs at seed 0, each run twice: in process, and through the
  command line (``sbhermite.cli.main`` with ``--out``), whose report file is
  parsed and hashed entry by entry (timings excluded), so the report writer
  is inside the recipe; each verify operation's config also goes through
  ``validate``, ``construct`` and ``construct --family 3`` on the command
  line, their report files hashed the same way (the family's keys and the
  term order of ``encode_gauss_poly`` with them);
- the command line's ``example --name em --s 0.9 --max-degree 170``, its
  report file hashed the same way, warnings included (its Gram,
  completeness and isometry residuals are NaN; overflow and invalid
  floating-point warnings are silenced for it);

and the values of ``transform_batch``, ``inverse_transform``,
``kernel_reproduce``, ``round_trip_error`` and ``isometry_residual`` (both
modes) on the golden ``em`` and ``ghs`` triples, and of ``hphi_inner``,
``hphi_norm``, ``gram_matrix``, ``expand_in_family``, ``adjoint_residual``
(every component), the frame (``L``, ``C``, normalizer) of
``make_moment_cache``, the keys of ``hermite_family`` in their order, and
``rodrigues`` (every member), ``coeff_distance`` (each member against its
Rodrigues form), ``apply_op`` (both ladders, every component) and
``hamiltonian_apply`` (terms in their order, a dense and a sparse
argument) on the golden ``em`` and ``ghs`` families (s = 0.5, degree 3)
and on one random n = 3 triple, where ``hamiltonian_apply`` also takes the
sparse high-degree argument (1.5 - 0.5i) z_1^6 z_3^2; on the same cases,
the terms of ``f + g``, ``f - f`` and ``f.scaled(0.75 - 1.25i)`` for the
random arguments f and g, ``evaluate`` of the sparse argument (built from a
dict in reverse order) at three fixed points, and that argument after an
``encode_gauss_poly`` -> ``decode_gauss_poly`` round trip through JSON
(terms and exponent); and the rejected arguments: complex "real" points
(``TestFunction`` and its ``polynomial_part``, ``inverse_transform``,
``round_trip_error``; as lists, and as complex arrays for ``TestFunction``
and ``round_trip_error``), n = 3 weight data beside an n = 2 triple or kernel
(``inverse_transform``, ``round_trip_error``, ``isometry_residual``,
``make_kernel_params``, ``kernel_reproduce``) and node counts below 4
(``QuadSpec`` and ``quadrature.nodes``), each hashed as its error class and
message, or ``no error``.  A stage that raises is hashed through its
partial report and the stage name.  Two checkouts that
print the same digest computed the same bits; ``--lines`` prints the hashed
lines too, to find where two checkouts part.  ``--against FILE`` reads the
``--lines`` output of another checkout and prints, per quantity (a line's
label and key without its index), the lines that differ and the largest
difference: absolute for residuals (``residuals.*`` and their
``cli.residuals.*`` copies, ``round_trip_error``, ``isometry_*``,
``adjoint_residual``, ``expand_residual``), relative to the other
checkout's value for every other number.

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import sbhermite as sb
from helpers import bench_module, em_data, ghs_data, random_poly
from sbhermite.cli import main as cli_main
from sbhermite.errors import StageFailure

S_VALUES = (0.3, 0.5, 0.7)


def _hex(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer, str)) or value is None:
        return repr(value)
    value = complex(value)
    return f"{value.real.hex()},{value.imag.hex()}"


def _report_lines(label: str, run) -> list[str]:
    try:
        report, failed = run(), None
    except StageFailure as exc:
        report, failed = exc.report, exc.stage
    lines = [f"{label} stage {failed!r} pass {report.overall_pass!r}"]
    for part in ("residuals", "metrics", "checks"):
        for key, value in sorted(getattr(report, part).items()):
            lines.append(f"{label} {part}.{key} {_hex(value)}")
    return lines


def _entries(value, key: str):
    """(key, leaf) pairs of a parsed JSON value, nested keys as
    ``a.b[i][j]``, object keys in sorted order."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _entries(value[k], f"{key}.{k}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _entries(item, f"{key}[{i}]")
    else:
        yield key, value


def _cli_lines(label: str, argv: list, directory: Path) -> list[str]:
    """The exit status and every entry but the timings (of a report that
    has them) of the file that ``sbhermite`` writes for ``argv``."""
    path = directory / "report.json"
    code = cli_main([*argv, "--out", str(path)])
    report = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    report.pop("timings", None)
    return [f"{label} cli.exit {code!r}"] + [
        f"{label} {key} {_hex(value)}" for key, value in _entries(report, "cli")]


def acceptance_lines() -> list[str]:
    inputs = bench_module("inputs")
    rng = np.random.default_rng(20260301)
    lines = []
    for k in range(50):
        n = int(rng.integers(1, 4))
        pt = sb.random_phase_triple(n, rng)
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        config = sb.RunConfig.from_dict(
            inputs.v1_config(pt.A, pt.B, pt.C, max_degree=3, seed=0, phases=phases))
        lines += _report_lines(f"acceptance-{k}", lambda: sb.run_verify(config))
    return lines


def golden_lines() -> list[str]:
    return [line for name in ("em", "ghs") for s in S_VALUES
            for line in _report_lines(f"golden-{name}-{s}", lambda: sb.run_example(name, s))]


def bench_lines() -> list[str]:
    inputs = bench_module("inputs")
    lines = []
    for workload in ("verify-deep", "verify-wide"):
        with tempfile.TemporaryDirectory() as tmp:
            spec = json.loads(inputs.make_inputs(workload, 0, Path(tmp)).read_text())
            for j, item in enumerate(spec["sets"]):
                for op in item["ops"]:
                    label = f"{workload}-set{j}-{op['name']}"
                    if op["kind"] == "verify":
                        path = spec["configs"][op["config"]]
                        config = sb.RunConfig.from_json(path)
                        lines += _report_lines(label, lambda: sb.run_verify(config))
                        for command in ("validate", "construct"):
                            lines += _cli_lines(f"{label}-{command}",
                                                [command, "--config", path], Path(tmp))
                        lines += _cli_lines(f"{label}-construct-family",
                                            ["construct", "--config", path, "--family", "3"],
                                            Path(tmp))
                        argv = ["verify", "--config", path]
                    else:
                        lines += _report_lines(label, lambda: sb.run_example(
                            op["example"], op["s"], max_degree=op["max_degree"],
                            nodes=op["nodes"]))
                        argv = ["example", "--name", op["example"], "--s", repr(op["s"]),
                                "--max-degree", str(op["max_degree"]),
                                "--nodes", str(op["nodes"])]
                    lines += _cli_lines(label, argv, Path(tmp))
    return lines


def overflow_lines() -> list[str]:
    argv = ["example", "--name", "em", "--s", "0.9", "--max-degree", "170"]
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
        return _cli_lines("example-em-0.9-170", argv, Path(tmp))


def quadrature_lines() -> list[str]:
    lines = []
    for name in ("em", "ghs"):
        pt = sb.validate_phase_triple(*sb.example_triple(name, 0.5))
        wd = sb.compute_weight_data(pt)
        n = pt.n
        rng = np.random.default_rng(11)
        u = sb.TestFunction(n, {alpha: complex(*rng.standard_normal(2))
                                for alpha in sb.multi_indices(n, 2)})
        z = 0.5 * (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
        xs = rng.standard_normal((3, n))
        quad = sb.QuadSpec(nodes=16)
        image = sb.transform_image(pt, u)
        values = {
            "transform_batch": sb.transform_batch(pt, u, z, quad),
            "inverse_transform": sb.inverse_transform(pt, image, xs, quad, wd),
            "kernel_reproduce": sb.kernel_reproduce(
                sb.make_kernel_params(pt, wd), wd, image, z, quad),
            "round_trip_error": sb.round_trip_error(pt, u, xs, quad, wd),
            "isometry_quad": sb.isometry_residual(pt, u, wd, quad, mode="quad"),
            "isometry_fit": sb.isometry_residual(pt, u, wd, quad, mode="fit"),
        }
        for key, value in values.items():
            for k, v in enumerate(np.ravel(value)):
                lines.append(f"quadrature-{name} {key}[{k}] {_hex(v)}")
    return lines


def _poly_lines(label: str, key: str, gp) -> list[str]:
    """One line per term of a GaussPoly, in the order of its dict."""
    return [f"{label} {key}[{','.join(map(str, alpha))}] {_hex(c)}"
            for alpha, c in gp.poly.terms.items()]


def integral_lines() -> list[str]:
    cases = {"em": em_data(0.5)[1:], "ghs": ghs_data(0.5)[1:],
             "random3": sb.random_generator(3, np.random.default_rng(7))[1:]}
    lines = []
    for name, (wd, gen) in cases.items():
        rng = np.random.default_rng(13)
        family = sb.hermite_family(wd, gen, 3)
        f, g = random_poly(wd.n, 3, gen.Q, rng), random_poly(wd.n, 2, gen.Q, rng)
        frame = sb.make_moment_cache(wd, gen.Q)
        coefficients, residual = sb.expand_in_family(f, family, wd)
        values = {
            "frame_L": frame.L,
            "frame_C": frame.C,
            "frame_normalizer": frame.form.normalizer,
            "hphi_inner": sb.hphi_inner(f, g, wd),
            "hphi_norm": sb.hphi_norm(f, wd),
            "gram_matrix": sb.gram_matrix(family, wd)[1],
            "expand_in_family": list(coefficients.values()),
            "expand_residual": residual,
            "adjoint_residual": [sb.adjoint_residual(wd, gen, f, g, i) for i in range(wd.n)],
        }
        for key, value in values.items():
            for k, v in enumerate(np.ravel(value)):
                lines.append(f"integrals-{name} {key}[{k}] {_hex(v)}")
        label = f"algebra-{name}"
        lines += [f"{label} family_key[{k}] {','.join(map(str, alpha))}"
                  for k, alpha in enumerate(family)]
        # every third term dropped, the rest inserted in reverse order
        sparse = sb.GaussPoly(sb.PolyC(wd.n, dict(reversed(
            [kv for k, kv in enumerate(f.poly.terms.items()) if k % 3]))), gen.Q)
        for alpha, member in family.items():
            closed = sb.rodrigues(wd, gen, alpha)
            key = ",".join(map(str, alpha))
            lines += _poly_lines(label, f"rodrigues-{key}", closed)
            lines += [f"{label} coeff_distance-{key}[{k}] {_hex(v)}"
                      for k, v in enumerate(sb.coeff_distance(closed, member))]
        for ladder, op in (("lower", sb.annihilation_ops(gen.Q)),
                           ("raise", sb.creation_ops(wd, gen))):
            for i in range(wd.n):
                lines += _poly_lines(label, f"apply_op-{ladder}-{i}", sb.apply_op(op, i, sparse))
        lines += _poly_lines(label, "hamiltonian_apply-dense", sb.hamiltonian_apply(wd, gen, f))
        lines += _poly_lines(label, "hamiltonian_apply-sparse",
                             sb.hamiltonian_apply(wd, gen, sparse))
        lines += _poly_lines(label, "sum", f + g)
        lines.append(f"{label} difference-terms {len((f - f).poly.terms)!r}")
        lines += _poly_lines(label, "scaled", f.scaled(0.75 - 1.25j))
        points = np.random.default_rng(17).standard_normal((3, 2 * wd.n)).view(complex)
        lines += [f"{label} evaluate-sparse[{k}] {_hex(v)}"
                  for k, v in enumerate(sb.evaluate(sparse, 0.5 * points))]
        back = sb.decode_gauss_poly(json.loads(json.dumps(sb.encode_gauss_poly(sparse))))
        lines += _poly_lines(label, "roundtrip", back)
        lines += [f"{label} roundtrip-M[{k}] {_hex(v)}" for k, v in enumerate(back.M.ravel())]
        if wd.n == 3:
            high = sb.GaussPoly(sb.PolyC(3, {(6, 0, 2): 1.5 - 0.5j}), gen.Q)
            lines += _poly_lines(label, "hamiltonian_apply-high", sb.hamiltonian_apply(wd, gen, high))
    return lines


def rejection_lines() -> list[str]:
    pt, wd, gen = sb.random_generator(2, np.random.default_rng(5))
    wd3 = sb.random_generator(3, np.random.default_rng(6))[1]
    u = sb.TestFunction(2, {(0, 0): 1.0, (1, 0): 0.5})
    image = sb.transform_image(pt, u)
    point = [[0.3 + 2j, 0.1]]
    cases = {
        "complex-u": lambda: sb.TestFunction(1, {(0,): 1.0})([0.5 + 0.7j]),
        "complex-polynomial_part": lambda: u.polynomial_part(point),
        "complex-inverse_transform": lambda: sb.inverse_transform(pt, image, point, None, wd),
        "complex-round_trip_error": lambda: sb.round_trip_error(pt, u, point, None, wd),
        "complex-array-u": lambda: u(np.array(point)),
        "complex-array-round_trip_error": lambda: sb.round_trip_error(
            pt, u, np.array(point), None, wd),
        "wd-inverse_transform": lambda: sb.inverse_transform(pt, image, [0.1, 0.2], None, wd3),
        "wd-round_trip_error": lambda: sb.round_trip_error(pt, u, [[0.1, 0.2]], None, wd3),
        "wd-isometry_residual": lambda: sb.isometry_residual(pt, u, wd3),
        "wd-make_kernel_params": lambda: sb.make_kernel_params(pt, wd3),
        "wd-kernel_reproduce": lambda: sb.kernel_reproduce(
            sb.make_kernel_params(pt, wd), wd3, image, [0.1, 0.2]),
        "nodes-QuadSpec-2": lambda: sb.QuadSpec(nodes=2),
        "nodes-QuadSpec-3": lambda: sb.QuadSpec(nodes=3),
        "nodes-config-2": lambda: sb.RunConfig.from_dict(sb.example_config("em", 0.5, nodes=2)),
    }
    lines = []
    for case, call in cases.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                call()
            outcome = "no error"
        except Exception as exc:  # noqa: BLE001 - the error is the hashed value
            outcome = f"{type(exc).__name__}: {exc}"
        lines.append(f"rejected {case} {outcome}")
    return lines


#: value lines that are residuals, compared absolutely
VALUE_RESIDUALS = ("round_trip_error", "isometry_quad", "isometry_fit",
                   "adjoint_residual", "expand_residual")


def _number(text: str):
    """The complex value of a hashed number, or None for other entries."""
    parts = text.split(",")
    try:
        return complex(*(float.fromhex(p) for p in parts)) if len(parts) == 2 else None
    except ValueError:
        return None


def _keyed(lines) -> dict:
    """{(label, key): value} of hashed lines; the digest line is skipped."""
    out = {}
    for line in lines:
        fields = line.rstrip("\n").split(" ", 2)
        if len(fields) == 3 and not re.fullmatch(r"[0-9a-f]{64}", fields[0]):
            out[(fields[0], fields[1])] = fields[2]
    return out


def compare(lines: list[str], other: list[str]) -> list[str]:
    """Report of the lines of this checkout that differ from ``other``."""
    mine, theirs = _keyed(lines), _keyed(other)
    groups = {}
    for key in sorted(mine.keys() | theirs.keys()):
        a, b = mine.get(key), theirs.get(key)
        if a != b:
            quantity = (key[0], re.sub(r"\[\d+\]$", "", key[1]))
            groups.setdefault(quantity, []).append((key, a, b))
    report = []
    for (label, name), diffs in groups.items():
        residual = name.startswith(("residuals.", "cli.residuals.")) or name in VALUE_RESIDUALS
        largest = None
        for key, a, b in diffs:
            x, y = _number(a or ""), _number(b or "")
            if x is None or y is None:
                continue
            gap = abs(x - y) if residual or y == 0 else abs(x - y) / abs(y)
            largest = gap if largest is None else max(largest, gap)
        kind = "absolute" if residual else "relative"
        size = "not numeric" if largest is None else f"largest {kind} difference {largest:.3g}"
        report.append(f"{label} {name}: {len(diffs)} line(s) differ, {size}")
        for key, a, b in diffs:
            report.append(f"    {key[1]}  this {a}  other {b}")
    same = sum(1 for key in mine if mine[key] == theirs.get(key))
    report.append(f"{sum(len(d) for d in groups.values())} line(s) differ in {len(groups)} "
                  f"quantities; {same} identical")
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    lines = (acceptance_lines() + golden_lines() + bench_lines() + overflow_lines()
             + quadrature_lines() + integral_lines() + rejection_lines())
    if "--lines" in argv:
        print("\n".join(lines))
    if "--against" in argv:
        with open(argv[argv.index("--against") + 1], encoding="utf-8") as fh:
            print("\n".join(compare(lines, fh.readlines())))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{digest}  ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

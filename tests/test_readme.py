"""The README's library sketch runs, the identities its comments state hold,
its config example follows the schema, and the private names it cites
exist."""

import json
import math
import pathlib
import re

import numpy as np

from sbhermite.config import CONFIG_KEYS, RunConfig
from sbhermite.pipeline import run_verify

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sbhermite"


def test_library_sketch():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    keys, gram, rho = ns["keys"], ns["gram"], ns["gen"].rho
    # diag = (2 rho^2)^|a| a! |psi0|^2
    want = [(2.0 * rho * rho) ** sum(a) * math.prod(map(math.factorial, a)) for a in keys]
    want = np.array(want) * gram[0, 0].real
    assert np.allclose(np.diag(gram).real, want, rtol=1e-12, atol=0.0)
    # h = 5 rho^2 psi_2
    h, psi2 = ns["h"], ns["family"][(2,)]
    assert np.array_equal(h.M, psi2.M)
    assert set(h.poly.terms) == set(psi2.poly.terms)
    for mono, c in psi2.poly.terms.items():
        assert abs(h.poly.terms[mono] - 5.0 * rho * rho * c) <= 1e-12 * abs(c)


def test_config_example():
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    raw = json.loads(block)
    # every key the schema accepts; from_dict rejects any other
    assert set(raw) == set(CONFIG_KEYS)
    assert set(raw["quadrature"]) == {"nodes"}
    report = run_verify(RunConfig.from_dict(raw))
    assert report.overall_pass, report.checks


def test_private_names_are_defined():
    # every backticked private name (``_name``, ``module._name``) is a
    # function, class or module-level constant that src defines
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = {name for span in spans for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)}
    src = "\n".join(path.read_text() for path in SRC.glob("*.py"))
    missing = [name for name in sorted(names) if not re.search(
        rf"^\s*(?:(?:def|class)\s+{name}\b|{name}\s*(?::[^=\n]*)?=)", src, re.M)]
    assert names and not missing, missing

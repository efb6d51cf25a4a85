"""The public surface: exported names, the integer- and real-argument rules and the README example."""

from pathlib import Path

import numpy as np
import pytest

import wienerchaos as wc
from wienerchaos.exceptions import ValidationError


def test_every_export_resolves():
    missing = [name for name in wc.__all__ if not hasattr(wc, name)]
    assert missing == []
    assert len(set(wc.__all__)) == len(wc.__all__)
    namespace = {}
    exec("from wienerchaos import *", namespace)
    assert set(wc.__all__) <= namespace.keys()


def _pair():
    sp = wc.HilbertSpace(2)
    f = wc.SymmetricTensor(sp, 2, {(1, 1): 1.0, (1, 2): 0.5})
    g = wc.SymmetricTensor(sp, 2, {(1, 2): 1.0, (2, 2): -0.5})
    return f, g


def _vector():
    return wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1)), 4)


def _first(iterator):
    return next(iter(iterator))


# Numeric arguments reject bools, and integer ones non-integers, with
# ValidationError: never a raw TypeError or a silent conversion.
@pytest.mark.parametrize(
    "call",
    [
        lambda: wc.contract(*_pair(), True),
        lambda: wc.contract_sym(*_pair(), True),
        lambda: wc.contract(*_pair(), 1.0),
        lambda: wc.sample(0, 2, 1000).block(2.5),
        lambda: wc.sample(0, 2, 1000).block(True),
        lambda: _first(wc.sample(0, 2, 1000).map_blocks(len, stop=True)),
        lambda: _first(wc.sample(0, 2, 1000).map_blocks(len, stop=1.0)),
        lambda: wc.criterion_check(_vector(), tol=True),
        lambda: wc.hermite(True, 2.0),
        lambda: wc.hermite(2.0, 2.0),
        lambda: wc.default_dictionary()[0].norm(True),
        lambda: wc.default_dictionary()[0].deriv_bound(True),
        lambda: wc.default_dictionary()[0].deriv_bound(1.5),
    ],
    ids=[
        "contract-bool-r",
        "contract_sym-bool-r",
        "contract-float-r",
        "block-float-index",
        "block-bool-index",
        "map_blocks-bool-stop",
        "map_blocks-float-stop",
        "criterion_check-bool-tol",
        "hermite-bool-order",
        "hermite-float-order",
        "norm-bool-order",
        "deriv_bound-bool-order",
        "deriv_bound-float-order",
    ],
)
def test_integer_arguments_reject_bools_and_non_integers(call):
    with pytest.raises(ValidationError):
        call()


# Real arguments take any non-bool numbers.Real and are stored as floats,
# so a numpy float32 neither fails nor rounds later arithmetic to float32.
def test_real_arguments_accept_numpy_scalars():
    tol = np.float32(1e-6)
    report = wc.criterion_check(_vector(), tol=tol)
    assert type(report.tol) is float and report.tol == float(tol)
    plain_report = wc.criterion_check(_vector(), tol=float(tol))
    assert (report.cov_pass, report.contraction_pass) == (plain_report.cov_pass, plain_report.contraction_pass)
    spec = wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=np.float32(0.3))
    assert type(spec.theta) is float
    plain = wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=float(np.float32(0.3)))
    assert wc.sequences.vector_document(wc.generate(spec, 4)) == wc.sequences.vector_document(wc.generate(plain, 4))
    with pytest.raises(ValidationError):
        wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=True)


def test_readme_quick_start_runs(capsys):
    # the README's library example runs as written against the current API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()

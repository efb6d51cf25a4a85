"""The public surface: exported names and the integer-argument rule."""

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

"""The public surface: exported names, the integer- and real-argument rules, the README example and the test oracles."""

import ast
from pathlib import Path

import numpy as np
import pytest

import wienerchaos as wc
from wienerchaos.exceptions import ValidationError


def test_the_public_names():
    # adding or removing a public name is an edit here
    assert sorted(wc.__all__) == [
        "ChaosElement", "ChaosVector", "DegenerateInputError", "FamilySpec", "GENERATOR_TAG", "HilbertSpace",
        "IndependenceReport", "InvalidKernelError", "RawTensor", "ResourceLimitError", "SampleBatch",
        "SymmetricTensor", "TestFunction", "ValidationError", "WienerChaosError", "__version__", "contract",
        "cov_squares", "cov_squares_and_norms", "criterion_check", "default_dictionary", "empirical_dependence",
        "evaluate", "generate", "hermite", "inner", "load_kernel", "load_vector", "multiplicity", "normalize",
        "sample", "save_kernel", "save_vector", "symmetrize", "variance",
    ]  # fmt: skip


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


# Numeric arguments reject bools, integer ones non-integers and real ones
# non-reals and reals too large for a float, with ValidationError: never a
# raw TypeError, OverflowError, numpy error or a silent conversion.
@pytest.mark.parametrize(
    "call",
    [
        lambda: wc.contract(*_pair(), True),
        lambda: wc.contract(*_pair(), 1.0),
        lambda: wc.sample(0, 2, 1000).block(2.5),
        lambda: wc.sample(0, 2, 1000).block(True),
        lambda: _first(wc.sample(0, 2, 1000).map_blocks(len, stop=True)),
        lambda: _first(wc.sample(0, 2, 1000).map_blocks(len, stop=1.0)),
        lambda: wc.criterion_check(_vector(), tol=True),
        lambda: wc.criterion_check(_vector(), tol=10**400),
        lambda: wc.hermite(True, 2.0),
        lambda: wc.hermite(np.bool_(True), 2.0),
        lambda: wc.hermite(2.0, 2.0),
        lambda: wc.hermite(2, None),
        lambda: wc.hermite(2, True),
        lambda: wc.hermite(2, "a"),
        lambda: wc.hermite(2, 1j),
        lambda: wc.default_dictionary()[0].norm(True),
        lambda: wc.default_dictionary()[0].deriv_bound(True),
        lambda: wc.default_dictionary()[0].deriv_bound(1.5),
        lambda: _pair()[0].scaled(True),
        lambda: _pair()[0].scaled(10**400),
        lambda: _pair()[0].scaled("a"),
    ],
    ids=[
        "contract-bool-r",
        "contract-float-r",
        "block-float-index",
        "block-bool-index",
        "map_blocks-bool-stop",
        "map_blocks-float-stop",
        "criterion_check-bool-tol",
        "criterion_check-tol-beyond-float",
        "hermite-bool-order",
        "hermite-numpy-bool-order",
        "hermite-float-order",
        "hermite-none-point",
        "hermite-bool-point",
        "hermite-string-point",
        "hermite-complex-point",
        "norm-bool-order",
        "deriv_bound-bool-order",
        "deriv_bound-float-order",
        "scaled-bool-factor",
        "scaled-factor-beyond-float",
        "scaled-string-factor",
    ],
)
def test_integer_arguments_reject_bools_and_non_integers(call):
    with pytest.raises(ValidationError):
        call()


# Tensor and element arguments of another type raise ValidationError naming
# it, as evaluate and ChaosElement do, rather than an AttributeError.
@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda f, F: wc.inner(f, 3), "a SymmetricTensor, got int"),
        (lambda f, F: wc.inner(F, f), "a SymmetricTensor, got ChaosElement"),
        (lambda f, F: wc.contract(f, {(1, 1): 1.0}, 1), "a SymmetricTensor, got dict"),
        (lambda f, F: wc.contract(None, f, 1), "a SymmetricTensor, got NoneType"),
        (lambda f, F: wc.cov_squares(F, f), "a chaos element, got SymmetricTensor"),
        (lambda f, F: wc.cov_squares_and_norms(2.0, F), "a chaos element, got float"),
    ],
    ids=["inner-int", "inner-element", "contract-dict", "contract-none", "cov_squares-tensor", "cov_squares_and_norms-float"],
)
def test_tensor_and_element_arguments_name_a_wrong_type(call, shown):
    f = _pair()[0]
    with pytest.raises(ValidationError, match=f"expected {shown}$"):
        call(f, wc.ChaosElement(f))


# Integer arguments take any non-bool numbers.Integral and are stored as
# ints, so a numpy integer gives the plain-int result and never reaches
# n**order or json.dumps as a numpy scalar.
def test_integer_arguments_accept_numpy_integers():
    i = np.int64
    space = wc.HilbertSpace(i(3))
    assert type(space.dimension) is int and space == wc.HilbertSpace(3)
    f, g = _pair()
    raw = wc.contract(f, g, i(1))
    assert (type(raw.left_order), type(raw.right_order)) == (int, int) and raw == wc.contract(f, g, 1)
    x = np.linspace(-2.0, 2.0, 5)
    assert np.array_equal(wc.hermite(i(3), x), wc.hermite(3, x))
    batch = wc.sample(i(5), np.uint32(2), i(1000))
    assert {type(field) for field in (batch.seed, batch.dimension, batch.count, batch.block_size)} == {int}
    assert batch == wc.sample(5, 2, 1000) and np.array_equal(batch.block(i(3)), wc.sample(5, 2, 1000).block(3))
    spec = wc.FamilySpec("vanishing_overlap", (i(2), np.int32(2)), (np.uint8(1), i(1)))
    assert {type(field) for field in spec.orders + spec.sizes} == {int}
    assert spec == wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1))
    vector = wc.generate(spec, i(4))
    assert type(vector.space.dimension) is int
    assert wc.sequences.vector_document(vector) == wc.sequences.vector_document(_vector())
    result = wc.empirical_dependence(vector, samples=i(10_000), seed=i(3))
    assert (type(result.samples), type(result.seed)) == (int, int)
    assert result == wc.empirical_dependence(_vector(), samples=10_000, seed=3)


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


def test_the_oracles_read_only_public_names():
    # tests/oracles.py checks the package from outside: every wienerchaos
    # name it imports or reads off a wienerchaos module is public, and the
    # oracles themselves no longer resolve in the package
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "wienerchaos":
            names += node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "wienerchaos":
                    names += alias.name.split(".")
                    modules.add(alias.asname or "wienerchaos")
    for node in ast.walk(tree):
        base = node
        while isinstance(base, ast.Attribute):
            base = base.value
        if node is not base and isinstance(base, ast.Name) and base.id in modules:
            names.append(node.attr)  # each link of a chain such as wc.tensor.contract is visited
    assert "evaluate" in names
    assert [name for name in names if name.startswith("_")] == []
    for name in ("ChaosExpansion", "isserlis_moment", "multiply"):
        assert name not in wc.__all__ and not hasattr(wc, name) and not hasattr(wc.chaos, name)
    assert not hasattr(wc.SymmetricTensor, "to_dense") and not hasattr(wc.RawTensor, "to_dense")

"""Workbench for vectors of multiple Wiener-Ito integrals on R^N.

Exact kernel calculus (contractions, symmetrization, squared covariances),
reproducible simulation, and asymptotic-independence diagnostics for
chaotic vectors, with deterministic kernel sequence families to exercise
the vanishing-contraction criterion at desk scale.
"""

from .chaos import (
    ChaosElement,
    cov_squares,
    cov_squares_and_norms,
    evaluate,
    normalize,
    variance,
)
from .exceptions import (
    DegenerateInputError,
    InvalidKernelError,
    ResourceLimitError,
    ValidationError,
    WienerChaosError,
)
from .hermite import hermite
from .independence import (
    ChaosVector,
    IndependenceReport,
    TestFunction,
    criterion_check,
    default_dictionary,
    empirical_dependence,
)
from .montecarlo import GENERATOR_TAG, SampleBatch, sample
from .sequences import (
    FamilySpec,
    generate,
    load_kernel,
    load_vector,
    save_kernel,
    save_vector,
)
from .tensor import (
    HilbertSpace,
    RawTensor,
    SymmetricTensor,
    contract,
    inner,
    multiplicity,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "ChaosElement",
    "ChaosVector",
    "DegenerateInputError",
    "FamilySpec",
    "GENERATOR_TAG",
    "HilbertSpace",
    "IndependenceReport",
    "InvalidKernelError",
    "RawTensor",
    "ResourceLimitError",
    "SampleBatch",
    "SymmetricTensor",
    "TestFunction",
    "ValidationError",
    "WienerChaosError",
    "contract",
    "cov_squares",
    "cov_squares_and_norms",
    "criterion_check",
    "default_dictionary",
    "empirical_dependence",
    "evaluate",
    "generate",
    "hermite",
    "inner",
    "load_kernel",
    "load_vector",
    "multiplicity",
    "normalize",
    "sample",
    "save_kernel",
    "save_vector",
    "symmetrize",
    "variance",
    "__version__",
]

"""Workbench for vectors of multiple Wiener-Ito integrals on R^N.

Exact kernel calculus (contractions, products, squared covariances),
reproducible simulation, and asymptotic-independence diagnostics for
chaotic vectors, with deterministic kernel sequence families to exercise
the vanishing-contraction criterion at desk scale.
"""

from .chaos import (
    ChaosElement,
    ChaosExpansion,
    cov_squares,
    cov_squares_and_norms,
    evaluate,
    isserlis_moment,
    multiply,
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
    bound_ratio,
    criterion_check,
    default_dictionary,
    empirical_dependence,
    exact_pairs,
    squared_cov_matrix,
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
    contract_sym,
    inner,
    multiplicity,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "ChaosElement",
    "ChaosExpansion",
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
    "bound_ratio",
    "contract",
    "contract_sym",
    "cov_squares",
    "cov_squares_and_norms",
    "criterion_check",
    "default_dictionary",
    "empirical_dependence",
    "evaluate",
    "exact_pairs",
    "generate",
    "hermite",
    "inner",
    "isserlis_moment",
    "load_kernel",
    "load_vector",
    "multiplicity",
    "multiply",
    "normalize",
    "sample",
    "save_kernel",
    "save_vector",
    "squared_cov_matrix",
    "symmetrize",
    "variance",
    "__version__",
]

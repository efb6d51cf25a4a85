"""Hermite polynomials normalized to leading coefficient 1/q!.

H_q(x) = ((-1)^q / q!) e^{x^2/2} (d/dx)^q e^{-x^2/2}, so H_0 = 1, H_1 = x,
H_2 = (x^2 - 1)/2, H_3 = (x^3 - 3x)/6, and the three-term recurrence reads
H_{q+1}(x) = (x H_q(x) - H_{q-1}(x)) / (q + 1).  Under a standard Gaussian,
E[H_p(Z) H_q(Z)] = delta_{pq} / q!.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .exceptions import _integer

ArrayLike = Union[float, np.ndarray]


def hermite_orders(max_order: int, x: np.ndarray) -> list:
    """[H_0(x), ..., H_max_order(x)] by the three-term recurrence.

    H_0 is the scalar 1.0 and H_1 is x itself, not a copy; every higher
    order is a new array.
    """
    prev, cur = 1.0, x
    table = [prev, cur]
    for k in range(1, max_order):
        prev, cur = cur, (x * cur - prev) / (k + 1)
        table.append(cur)
    return table[: max_order + 1]


def hermite(q: int, x: ArrayLike) -> ArrayLike:
    """Evaluate H_q at x (scalar or array) by the three-term recurrence."""
    q = _integer(q, "hermite order")
    xa = np.asarray(x, dtype=np.float64)
    out = np.empty_like(xa)
    out[...] = hermite_orders(q, xa)[q]
    return float(out) if np.isscalar(x) else out

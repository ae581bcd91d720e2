"""Kernel functions for the dual linkage model (Eqn 12).

"We use K to denote the kernel matrix formed by kernel functions
K(x_ii', x_jj') = <phi(x_ii'), phi(x_jj')>."  The similarity vectors live in
[0, 1]^D, so the chi-square kernel (natural for histogram-like features,
Section 5.2) is provided alongside the standard linear and RBF kernels.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

__all__ = ["linear_kernel", "rbf_kernel", "chi_square_kernel", "make_kernel"]

KernelFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _as_2d(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    return arr


def linear_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gram matrix ``X @ Y.T``."""
    return _as_2d(x) @ _as_2d(y).T


def rbf_kernel(x: np.ndarray, y: np.ndarray, *, gamma: float = 1.0) -> np.ndarray:
    """Gaussian kernel ``exp(-gamma * ||x - y||^2)``."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    xx = _as_2d(x)
    yy = _as_2d(y)
    # one (n, m) buffer end to end: the fit's Gram matrix and every
    # /score_pairs decision pass through here
    out = (2.0 * xx) @ yy.T
    np.subtract((xx**2).sum(axis=1)[:, None], out, out=out)
    out += (yy**2).sum(axis=1)[None, :]
    np.maximum(out, 0.0, out=out)
    out *= -gamma
    return np.exp(out, out=out)


def chi_square_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Additive chi-square kernel ``sum_d 2 x_d y_d / (x_d + y_d)``.

    Requires non-negative inputs (histogram-like features).  Dimensions where
    both entries are zero contribute zero.
    """
    xx = _as_2d(x)
    yy = _as_2d(y)
    if (xx < 0).any() or (yy < 0).any():
        raise ValueError("chi-square kernel requires non-negative features")
    num = 2.0 * xx[:, None, :] * yy[None, :, :]
    den = xx[:, None, :] + yy[None, :, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return terms.sum(axis=2)


def make_kernel(name: str, **params) -> KernelFn:
    """Kernel factory: ``"linear"``, ``"rbf"`` (param ``gamma``), ``"chi_square"``.

    Returns a two-argument callable producing the Gram matrix.
    """
    if name == "linear":
        return linear_kernel
    if name == "rbf":
        # a partial of the module-level function (not a closure) so fitted
        # models stay picklable: a fitted linker can be cloned through
        # pickle into a second, independent service
        return partial(rbf_kernel, gamma=params.get("gamma", 1.0))
    if name == "chi_square":
        return chi_square_kernel
    raise ValueError(f"unknown kernel {name!r}; options: linear, rbf, chi_square")

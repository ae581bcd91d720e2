"""Kernel functions for the dual linkage model (Eqn 12).

"We use K to denote the kernel matrix formed by kernel functions
K(x_ii', x_jj') = <phi(x_ii'), phi(x_jj')>."  The similarity vectors live in
[0, 1]^D, so the chi-square kernel (natural for histogram-like features,
Section 5.2) is provided alongside the standard linear and RBF kernels.

Two shapes of the same functions: :func:`make_kernel` returns the Gram
matrix of two row sets (the fit's ``n x n`` K), and :func:`make_row_kernel`
returns ``K(row, y)`` for **one** query row against a fixed ``y`` (the
decision function's half).  A row kernel makes one fixed-shape BLAS call
per row - the gemv ``y @ row`` - and finishes elementwise, so a row's
kernel values never depend on which other rows are scored beside it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "linear_kernel",
    "rbf_kernel",
    "chi_square_kernel",
    "make_kernel",
    "make_row_kernel",
]

KernelFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
RowKernelFn = Callable[[np.ndarray], np.ndarray]


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
    # one (n, m) buffer end to end for the fit's Gram matrix
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
    _check_non_negative(xx)
    _check_non_negative(yy)
    return _chi_square_terms(xx[:, None, :], yy[None, :, :]).sum(axis=2)


def _check_non_negative(x: np.ndarray) -> None:
    if (x < 0).any():
        raise ValueError("chi-square kernel requires non-negative features")


def _chi_square_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-dimension ``2 x_d y_d / (x_d + y_d)``, zero where both are 0."""
    num = 2.0 * x * y
    den = x + y
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


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


def make_row_kernel(name: str, y: np.ndarray, **params) -> RowKernelFn:
    """Row-kernel factory: ``row -> K(row, y)``, shape ``(len(y),)``.

    Whatever depends only on ``y`` (RBF's ``||y||^2``) is computed here,
    once.  Each call then sees exactly one query row: the cross term is one
    gemv against the fixed ``(n, d)`` matrix ``y`` and the rest is
    elementwise, so the result for a row is bit-identical however the
    caller batches, orders or chunks its rows.  ``row`` must be a
    contiguous float64 vector.
    """
    y = np.ascontiguousarray(_as_2d(y))
    if name == "linear":
        return lambda row: y @ row
    if name == "rbf":
        gamma = params.get("gamma", 1.0)
        if gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        y_sq = (y**2).sum(axis=1)

        def rbf_row(row: np.ndarray) -> np.ndarray:
            out = y @ row
            out *= -2.0
            out += y_sq
            out += np.square(row).sum()
            np.maximum(out, 0.0, out=out)
            out *= -gamma
            return np.exp(out, out=out)

        return rbf_row
    if name == "chi_square":
        _check_non_negative(y)

        def chi_square_row(row: np.ndarray) -> np.ndarray:
            _check_non_negative(row)
            return _chi_square_terms(y, row).sum(axis=1)

        return chi_square_row
    raise ValueError(f"unknown kernel {name!r}; options: linear, rbf, chi_square")

"""The fast-path ranking kernel: float32 Gram blocks over Nyström landmarks.

The fitted decision function (Eqn 12) is a kernel expansion over every
training row::

    f(x) = K(x, X_train) @ alpha + bias            # O(n_train · d) per pair

:class:`FastScorer` compresses it onto ``L`` landmark rows.  With
``K_mm = K(landmarks, landmarks)`` and ``K_mn = K(landmarks, X_train)``,
the Nyström approximation ``K(x, X_train) ≈ K(x, M) K_mm⁻¹ K_mn`` folds
the training expansion into one weight vector::

    w = (K_mm + ridge·I)⁻¹ K_mn @ alpha            # solved once, at fit time
    f̂(x) = K₃₂(x, landmarks) @ w + bias           # O(L · d) per pair, float32

The landmark selection and solve run in float64 at fit time (see
:meth:`FastScorer.from_model`; :func:`repro.persist.save_linker` persists
the result in the artifact so a reload never reselects); only the
per-query Gram block is evaluated in float32.  For the linear kernel the
compression is exact up to float32 rounding — ``K(x, X) α = x · (Xᵀα)``
lies in the landmark span for any landmarks — while for RBF and
chi-square it is a genuine low-rank approximation, which is why every
caller rescores its short list through the exact float64 path before
returning scores.

NaN feature rows (the sharded router's down-shard markers) yield NaN fast
scores regardless of kernel, preserving the degraded-read contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FastScorer"]

#: npz keys under which a fast scorer's arrays persist inside artifacts.
ARRAY_KEYS = ("approx_landmarks", "approx_weights")


def _gram32(kernel: str, params: dict, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float32 Gram block ``K(x, y)`` for the fast ranking pass.

    Mirrors :mod:`repro.core.kernels` but stays in float32 end to end;
    the exact float64 twins remain the source of truth for returned
    scores.
    """
    if kernel == "linear":
        return x @ y.T
    if kernel == "rbf":
        gamma = np.float32(params.get("gamma", 1.0))
        sq = (
            (x**2).sum(axis=1)[:, None]
            - np.float32(2.0) * (x @ y.T)
            + (y**2).sum(axis=1)[None, :]
        )
        return np.exp(-gamma * np.maximum(sq, np.float32(0.0)))
    if kernel == "chi_square":
        num = np.float32(2.0) * x[:, None, :] * y[None, :, :]
        den = x[:, None, :] + y[None, :, :]
        terms = np.where(
            den > 0, num / np.where(den > 0, den, np.float32(1.0)),
            np.float32(0.0),
        )
        return terms.sum(axis=2, dtype=np.float32)
    raise ValueError(
        f"unknown kernel {kernel!r}; options: linear, rbf, chi_square"
    )


@dataclass
class FastScorer:
    """A Nyström-compressed, float32 copy of one fitted decision function.

    Instances are plain arrays plus the kernel name — picklable (they ride
    inside pickled linkers) and persistable (see
    :meth:`arrays` / :meth:`manifest_entry` and the ``approx`` section of
    :mod:`repro.persist`).
    """

    kernel: str
    kernel_params: dict
    landmarks: np.ndarray  # (L, d) float32
    weights: np.ndarray  # (L,) float32
    bias: float
    seed: int
    num_train: int

    @classmethod
    def from_model(
        cls,
        model,
        *,
        num_landmarks: int = 64,
        seed: int = 0,
        ridge: float = 1e-6,
    ) -> "FastScorer":
        """Select landmarks from a fitted model and solve the Nyström weights.

        ``model`` is a fitted :class:`~repro.core.moo.MultiObjectiveModel`
        (or the scoring head's reconstruction of one).  Selection is a
        seeded uniform draw without replacement over the training rows,
        sorted so the float64 solve sees a deterministic operand order;
        the same ``(model, num_landmarks, seed)`` always produces the same
        scorer bytes — which is what lets the sharded router rebuild a
        scorer from its head and agree bit-for-bit with the single-process
        service.
        """
        if model.x_train_ is None or model.alpha_ is None:
            raise ValueError("model is not fitted: missing dual expansion")
        x_train = np.asarray(model.x_train_, dtype=float)
        alpha = np.asarray(model.alpha_, dtype=float)
        n = x_train.shape[0]
        count = min(max(num_landmarks, 1), n)
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(n, size=count, replace=False))
        landmarks = x_train[indices]

        from repro.core.kernels import make_kernel

        kernel_fn = make_kernel(model.config.kernel, **model.config.kernel_params)
        k_mm = kernel_fn(landmarks, landmarks)
        k_mn = kernel_fn(landmarks, x_train)
        weights = np.linalg.solve(
            k_mm + ridge * np.eye(count), k_mn @ alpha
        )
        return cls(
            kernel=model.config.kernel,
            kernel_params=dict(model.config.kernel_params),
            landmarks=np.ascontiguousarray(landmarks, dtype=np.float32),
            weights=np.ascontiguousarray(weights, dtype=np.float32),
            bias=float(model.bias_),
            seed=int(seed),
            num_train=int(n),
        )

    @property
    def num_landmarks(self) -> int:
        return int(self.landmarks.shape[0])

    def score(self, x: np.ndarray) -> np.ndarray:
        """Approximate decision values, float32 end to end.

        Rows containing NaN (down-shard feature rows) score NaN for every
        kernel, so degraded filtering downstream behaves exactly as on the
        exact path.
        """
        x32 = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float32)
        out = _gram32(self.kernel, self.kernel_params, x32, self.landmarks)
        out = out @ self.weights + np.float32(self.bias)
        bad = np.isnan(x32).any(axis=1)
        if bad.any():
            out = out.copy() if not out.flags.writeable else out
            out[bad] = np.float32(np.nan)
        return out

    # ------------------------------------------------------------------
    # persistence (see repro.persist.artifact)
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The npz payload persisting this scorer inside an artifact."""
        return {
            "approx_landmarks": self.landmarks,
            "approx_weights": self.weights,
        }

    def manifest_entry(self) -> dict:
        """The JSON manifest section describing the persisted arrays."""
        return {
            "kernel": self.kernel,
            "kernel_params": dict(self.kernel_params),
            "bias": self.bias,
            "seed": self.seed,
            "num_landmarks": self.num_landmarks,
            "num_train": self.num_train,
        }

    @classmethod
    def from_persisted(cls, entry: dict, arrays) -> "FastScorer":
        """Rebuild from a manifest section plus the loaded npz arrays."""
        return cls(
            kernel=str(entry["kernel"]),
            kernel_params=dict(entry["kernel_params"]),
            landmarks=np.ascontiguousarray(
                arrays["approx_landmarks"], dtype=np.float32
            ),
            weights=np.ascontiguousarray(
                arrays["approx_weights"], dtype=np.float32
            ),
            bias=float(entry["bias"]),
            seed=int(entry["seed"]),
            num_train=int(entry["num_train"]),
        )

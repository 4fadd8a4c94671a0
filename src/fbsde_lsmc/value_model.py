"""Linear-in-parameters value models over multivariate Chebyshev bases.

Features are products of univariate Chebyshev polynomials of the first kind
over all multi-indices of total degree at most ``d``, giving

    binom(dim + d, d)

basis functions.  Each timestep carries its own affine scaling of the state
into [-1, 1] per coordinate (chosen from the sampled state distribution), and
evaluation outside [-1, 1] is permitted via the three-term recurrence.
Gradients and Hessians are exact and act on coefficients, not features:
differentiating along one coordinate maps the basis span into itself through
a sparse per-coordinate operator G_c (built once per basis from the 1-D
Chebyshev differentiation matrix).  With scaling slope s_c, the gradient and
Hessian coefficients are s_c G_c a and s_c s_e G_e G_c a, so every derivative
query is one feature evaluation and one matrix product.

Fitting is plain ridge-regularized least squares on the feature matrix,
solved through an orthogonal factorization.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebder

from .errors import NotFittedError, RankDeficientWarning

__all__ = [
    "BasisSpec",
    "ValueModel",
    "basis_eval",
    "lsmc_fit",
    "scaling_from_batch",
    "fit_function",
    "model_to_json",
    "save_model_json",
]


def _multi_indices(dim: int, degree: int) -> np.ndarray:
    """All multi-indices with total degree <= degree, graded lexicographic."""
    idx = [a for a in product(range(degree + 1), repeat=dim) if sum(a) <= degree]
    idx.sort(key=lambda a: (sum(a), a))
    return np.array(idx, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Chebyshev product basis with per-timestep affine state scaling.

    Attributes
    ----------
    dim : int
        State dimension.
    max_total_degree : int
        Total-degree truncation d; the basis has binom(dim + d, d) functions.
    scale_lo, scale_hi : ndarray, shape (steps, dim)
        Per-timestep boxes mapped affinely onto [-1, 1]^dim; must satisfy
        ``scale_hi > scale_lo`` everywhere.
    """

    dim: int
    max_total_degree: int
    scale_lo: np.ndarray
    scale_hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.scale_lo, dtype=float)
        hi = np.asarray(self.scale_hi, dtype=float)
        if lo.ndim != 2 or lo.shape[1] != self.dim or lo.shape != hi.shape:
            raise ValueError("scaling boxes must have shape (steps, dim)")
        if not np.all(hi > lo):
            raise ValueError("scaling maps must be strictly increasing (hi > lo)")
        if self.max_total_degree < 0:
            raise ValueError("max_total_degree must be nonnegative")

    @classmethod
    def with_unit_scaling(cls, dim: int, max_total_degree: int, n_steps: int) -> "BasisSpec":
        """Identity-like scaling: the box [-1, 1] itself at every step."""
        lo = np.full((n_steps + 1, dim), -1.0)
        hi = np.full((n_steps + 1, dim), 1.0)
        return cls(dim, max_total_degree, lo, hi)

    @cached_property
    def indices(self) -> np.ndarray:
        return _multi_indices(self.dim, self.max_total_degree)

    @cached_property
    def derivative_operators(self) -> np.ndarray:
        """Per-coordinate differentiation operators G, shape (dim, size, size).

        ``G[c] @ a`` are the coefficients of d/dz_c of the expansion with
        coefficients ``a``, in unit-box coordinates z.  T_j' is a combination
        of T_m with m < j, and lowering one index of a total-degree
        multi-index stays in the index set, so the operators are exact.
        """
        d = self.max_total_degree
        # column j: Chebyshev coefficients of T_j'
        d1 = chebder(np.eye(d + 2))[: d + 1, : d + 1]
        position = {alpha: b for b, alpha in enumerate(map(tuple, self.indices.tolist()))}
        ops = np.zeros((self.dim, self.size, self.size))
        for alpha, b in position.items():
            for c, j in enumerate(alpha):
                for m in range(j):
                    lowered = alpha[:c] + (m,) + alpha[c + 1 :]
                    ops[c, position[lowered], b] = d1[m, j]
        return ops

    @property
    def size(self) -> int:
        d = self.max_total_degree
        return math.comb(self.dim + d, d)

    @property
    def n_steps_covered(self) -> int:
        return self.scale_lo.shape[0]

    def scaled(self, i: int, x: np.ndarray) -> tuple:
        """Map states to the unit box; returns (z, slopes)."""
        lo = self.scale_lo[i]
        hi = self.scale_hi[i]
        slope = 2.0 / (hi - lo)
        z = (2.0 * x - hi - lo) / (hi - lo)
        return z, slope


def _cheb_values(z: np.ndarray, degree: int) -> np.ndarray:
    """Chebyshev values T_j(z), j = 0..degree, on a new trailing axis.

    The three-term recurrence is total: valid for any real z.
    """
    t = np.empty(z.shape + (degree + 1,))
    t[..., 0] = 1.0
    if degree >= 1:
        t[..., 1] = z
    for j in range(2, degree + 1):
        t[..., j] = 2.0 * z * t[..., j - 1] - t[..., j - 2]
    return t


def basis_eval(spec: BasisSpec, i: int, x) -> np.ndarray:
    """Feature vector Phi(x) at step ``i``; shape ``x.shape[:-1] + (size,)``."""
    x = np.asarray(x, dtype=float)
    z, _ = spec.scaled(i, x)
    t = _cheb_values(z, spec.max_total_degree)
    tsel = t[..., np.arange(spec.dim), spec.indices]
    return np.prod(tsel, axis=-1)


@dataclass(eq=False)
class ValueModel:
    """Per-timestep linear value model over a shared basis.

    Coefficients are NaN until a step is fitted; querying an unfitted step
    raises :class:`NotFittedError`.  Evaluation broadcasts over leading axes
    of the state argument.  Value, gradient and Hessian are each one feature
    evaluation times a coefficient block built from ``coeffs[i]`` on the call.
    """

    basis: BasisSpec
    coeffs: np.ndarray
    fitted: np.ndarray

    @classmethod
    def empty(cls, basis: BasisSpec, n_steps: int) -> "ValueModel":
        """Unfitted model covering steps 0..n_steps."""
        coeffs = np.full((n_steps + 1, basis.size), np.nan)
        fitted = np.zeros(n_steps + 1, dtype=bool)
        return cls(basis=basis, coeffs=coeffs, fitted=fitted)

    @property
    def fitted_steps(self) -> set:
        return set(np.nonzero(self.fitted)[0].tolist())

    def set_coeffs(self, i: int, alpha: np.ndarray) -> None:
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (self.basis.size,):
            raise ValueError(f"expected {self.basis.size} coefficients, got {alpha.shape}")
        self.coeffs[i] = alpha
        self.fitted[i] = True

    def _require(self, i: int) -> None:
        if not 0 <= i < self.coeffs.shape[0] or not self.fitted[i]:
            raise NotFittedError(i)

    def _differentiate(self, i: int, a: np.ndarray) -> np.ndarray:
        """Coefficients of the state gradient of expansion(s) ``a``.

        Returns ``s_c G_c a`` stacked over coordinates c, shape
        ``(dim,) + a.shape``, where s_c is the step's scaling slope.
        """
        slope = 2.0 / (self.basis.scale_hi[i] - self.basis.scale_lo[i])
        return slope.reshape((-1,) + (1,) * a.ndim) * (self.basis.derivative_operators @ a)

    def eval(self, i: int, x) -> np.ndarray:
        self._require(i)
        return basis_eval(self.basis, i, x) @ self.coeffs[i]

    def grad(self, i: int, x) -> np.ndarray:
        self._require(i)
        return basis_eval(self.basis, i, x) @ self._differentiate(i, self.coeffs[i]).T

    def hessian(self, i: int, x) -> np.ndarray:
        self._require(i)
        n = self.basis.dim
        grad_block = self._differentiate(i, self.coeffs[i]).T
        # (e, b, c) -> (b, c, e): column c * n + e holds d2/dx_c dx_e
        block = self._differentiate(i, grad_block).transpose(1, 2, 0).reshape(-1, n * n)
        phi = basis_eval(self.basis, i, x)
        return (phi @ block).reshape(phi.shape[:-1] + (n, n))


def lsmc_fit(xs, ys, spec: BasisSpec, i: int, ridge: float = 1e-10) -> np.ndarray:
    """Least-squares coefficients for targets ``ys`` observed at states ``xs``.

    Minimizes ``sum_k (y_k - Phi(x_k)^T a)^2 + ridge * ||a||^2`` through an
    orthogonal factorization (deterministic for fixed inputs).  With
    ``ridge=0`` and a rank-deficient design the minimum-norm solution is
    returned and a :class:`RankDeficientWarning` is issued.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("xs and ys must have the same number of rows")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    phi = basis_eval(spec, i, xs)
    if ridge > 0:
        a = np.vstack([phi, math.sqrt(ridge) * np.eye(spec.size)])
        b = np.concatenate([ys, np.zeros(spec.size)])
    else:
        a, b = phi, ys
    coeffs, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if ridge == 0 and rank < spec.size:
        warnings.warn(
            f"design matrix at step {i} has rank {rank} < {spec.size}; "
            "returning the minimum-norm solution",
            RankDeficientWarning,
            stacklevel=2,
        )
    return coeffs


def scaling_from_batch(batch, max_total_degree: int) -> BasisSpec:
    """Basis whose per-step boxes track the sampled state distribution.

    Each box is mean +/- max(3 std, 1) per coordinate, so the bulk of the
    samples lands inside [-1, 1] and the design matrix stays conditioned even
    for nearly deterministic steps.
    """
    mean = batch.x.mean(axis=0)
    std = batch.x.std(axis=0)
    half = np.maximum(3.0 * std, 1.0)
    return BasisSpec(
        dim=batch.dim,
        max_total_degree=max_total_degree,
        scale_lo=mean - half,
        scale_hi=mean + half,
    )


def _cheb_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    k = np.arange(count)
    z = np.cos((2 * k + 1) * np.pi / (2 * count))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * z


def fit_function(spec: BasisSpec, i: int, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Coefficients reproducing ``fn`` on a tensor Chebyshev-node grid.

    Exact (to rounding) whenever ``fn`` lies in the basis span; used to embed
    known quadratics or test functions into a model.
    """
    per_axis = spec.max_total_degree + 2
    axes = [
        _cheb_nodes(spec.scale_lo[i, c], spec.scale_hi[i, c], per_axis)
        for c in range(spec.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return lsmc_fit(pts, fn(pts), spec, i, ridge=0.0)


def model_to_json(m: ValueModel) -> dict:
    """JSON-ready dump: one record per fitted step with scaling and coeffs."""
    steps = []
    for i in sorted(m.fitted_steps):
        steps.append(
            {
                "step": int(i),
                "degree": int(m.basis.max_total_degree),
                "scaling": {
                    "lo": m.basis.scale_lo[i].tolist(),
                    "hi": m.basis.scale_hi[i].tolist(),
                },
                "coeffs": m.coeffs[i].tolist(),
            }
        )
    return {"dim": m.basis.dim, "basis_size": m.basis.size, "steps": steps}


def save_model_json(m: ValueModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(m), fh, indent=2)

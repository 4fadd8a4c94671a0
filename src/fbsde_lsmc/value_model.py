"""Linear-in-parameters value models over multivariate Chebyshev bases.

Features are products of univariate Chebyshev polynomials of the first kind
over all multi-indices of total degree at most ``d``, giving

    binom(dim + d, d)

basis functions.  Each timestep carries its own affine scaling of the state
into [-1, 1] per coordinate (chosen from the sampled state distribution), and
evaluation outside [-1, 1] is permitted via the three-term recurrence.
Features are built by recursive products: each is an earlier feature (its
multi-index with the last nonzero coordinate zeroed) times one univariate
factor, which repeats the multiplications of the left-to-right product over
coordinates bit for bit.
Gradients and Hessians are exact and act on coefficients, not features:
differentiating along one coordinate maps the basis span into itself through
a sparse per-coordinate operator G_c (built once per basis from the 1-D
Chebyshev differentiation matrix).  With scaling slope s_c, the gradient and
Hessian coefficients are s_c G_c a and s_c s_e G_e G_c a, so every derivative
query is one feature evaluation and one matrix product.

Fitting is plain minimum-norm least squares on the feature matrix, solved
through an orthogonal factorization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from numpy.polynomial.chebyshev import chebder

from .errors import NotFittedError, RankDeficientWarning

__all__ = [
    "BasisSpec",
    "ValueModel",
    "basis_eval",
    "lsmc_fit",
    "scaling_from_batch",
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

    @cached_property
    def product_plan(self) -> tuple:
        """Per total degree 1..d, ``(lo, hi, parents, factors)``: features ``lo:hi``
        are ``parents``' times rows ``factors`` of :func:`basis_eval`'s table."""
        d, alphas = self.max_total_degree, self.indices.tolist()
        position = {tuple(alpha): b for b, alpha in enumerate(alphas)}
        parents, factors = [], []
        for alpha in alphas:
            c = max((k for k, j in enumerate(alpha) if j), default=0)
            parents.append(position[tuple(alpha[:c]) + (0,) * (self.dim - c)])
            factors.append(c * (d + 1) + alpha[c])
        parents, factors = np.array(parents), np.array(factors)
        ends = [math.comb(self.dim + j, j) for j in range(d + 1)]
        return tuple((lo, hi, parents[lo:hi], factors[lo:hi]) for lo, hi in zip(ends, ends[1:]))

    @property
    def size(self) -> int:
        d = self.max_total_degree
        return math.comb(self.dim + d, d)

    @property
    def n_steps_covered(self) -> int:
        return self.scale_lo.shape[0]

    def scaled(self, i: int, x: np.ndarray) -> np.ndarray:
        """Affine map taking step ``i``'s scaling box onto [-1, 1]^n."""
        lo, hi = self.scale_lo[i], self.scale_hi[i]
        return (2.0 * x - hi - lo) / (hi - lo)


def basis_eval(spec: BasisSpec, i: int, x) -> np.ndarray:
    """Feature vector Phi(x) at step ``i``; shape ``x.shape[:-1] + (size,)``.

    A three-term recurrence, valid for any real z, fills a (dim, d + 1,
    points) table of T_j(z_c).  Each feature alpha is then its parent's (alpha
    with its last nonzero coordinate c zeroed, so of lower total degree) times
    the row T_{alpha_c}(z_c), a degree at a time (:attr:`BasisSpec.product_plan`).
    That is the left-to-right product over coordinates without its factors
    T_0 = 1, which are exact, so the bits are the same, signed zeros and
    infinities included.  Only where two NaN factors meet may the NaN's sign
    differ: IEEE 754 leaves it open.
    """
    x = np.asarray(x, dtype=float)
    dim, d, size = spec.dim, spec.max_total_degree, spec.size
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"expected states with {dim} coordinates, got shape {x.shape}")
    if not 0 <= i < spec.n_steps_covered:
        raise ValueError(f"step {i} is outside the {spec.n_steps_covered} scaled steps")
    z = spec.scaled(i, x).reshape(-1, dim).T
    table = np.empty((dim, d + 1, z.shape[1]))
    table[:, 0] = 1.0
    if d:
        table[:, 1] = z
        two_z = 2.0 * table[:, 1]
    for j in range(2, d + 1):
        np.multiply(two_z, table[:, j - 1], out=table[:, j])
        table[:, j] -= table[:, j - 2]
    if dim == 1:
        feats = table[0]  # every parent is the constant: the features are the table
    else:
        table, feats = table.reshape(-1, z.shape[1]), np.empty((size, z.shape[1]))
        feats[0] = 1.0
        for lo, hi, parents, factors in spec.product_plan:
            # mode "clip" lets take write straight into the level; rows are in range
            table.take(factors, 0, out=feats[lo:hi], mode="clip")
            np.multiply(feats.take(parents, 0), feats[lo:hi], out=feats[lo:hi])
    # the strides of np.prod over the coordinates, the tests' reference, which
    # BLAS calls read: axes of length one slowest, then features, then points
    shape = x.shape[:-1] + (size,)
    if dim == size == 1:
        return feats.reshape(shape)  # except a 1-D constant: C order
    points = range(len(shape) - 1)
    layout = [k for k in points if shape[k] == 1] + [len(shape) - 1]
    layout += [k for k in points if shape[k] != 1]
    axes = sorted(range(len(shape)), key=layout.__getitem__)
    return feats.reshape([shape[k] for k in layout]).transpose(axes)


@dataclass(eq=False)
class ValueModel:
    """Per-timestep linear value model over a shared basis.

    Coefficients are NaN until a step is fitted; querying an unfitted step
    raises :class:`NotFittedError`.  Evaluation broadcasts over leading axes
    of the state argument.  Value, gradient and Hessian are each one feature
    evaluation times a coefficient block built from ``coeffs[i]`` on the call;
    :meth:`from_features` takes the features precomputed by :func:`basis_eval`,
    to share them.
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

    def set_coeffs(self, i: int, alpha: np.ndarray) -> None:
        n_steps = self.coeffs.shape[0] - 1
        if not 0 <= i <= n_steps:
            raise ValueError(f"step {i} is outside the model's steps 0..{n_steps}")
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

    def from_features(self, i: int, phi: np.ndarray, order: int = 0) -> np.ndarray:
        """Value (order 0), gradient (1) or Hessian (2) at step ``i``: one product
        of the step's features ``phi`` with the step's coefficient block."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        self._require(i)
        block = self.coeffs[i]
        if order == 0:
            return phi @ block
        block = self._differentiate(i, block).T
        if order == 1:
            return phi @ block
        n = self.basis.dim
        # (e, b, c) -> (b, c, e): column c * n + e holds d2/dx_c dx_e
        block = self._differentiate(i, block).transpose(1, 2, 0).reshape(-1, n * n)
        return (phi @ block).reshape(phi.shape[:-1] + (n, n))

    def eval(self, i: int, x) -> np.ndarray:
        return self.from_features(i, basis_eval(self.basis, i, x))

    def grad(self, i: int, x) -> np.ndarray:
        return self.from_features(i, basis_eval(self.basis, i, x), 1)

    def hessian(self, i: int, x) -> np.ndarray:
        return self.from_features(i, basis_eval(self.basis, i, x), 2)


def lsmc_fit(xs, ys, spec: BasisSpec, i: int, phi=None) -> np.ndarray:
    """Least-squares coefficients for targets ``ys`` observed at states ``xs``.

    ``phi``, when given, is ``basis_eval(spec, i, xs)`` computed by the caller.

    Returns the minimum-norm minimizer of ``sum_k (y_k - Phi(x_k)^T a)^2``,
    ``np.linalg.lstsq(phi, ys, rcond=None)`` (deterministic for fixed inputs).
    A :class:`RankDeficientWarning` is issued when the design is rank
    deficient, which it always is with fewer rows than basis functions.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("xs and ys must have the same number of rows")
    if phi is None:
        phi = basis_eval(spec, i, xs)
    coeffs, _, rank, _ = np.linalg.lstsq(phi, ys, rcond=None)
    if rank < spec.size:
        rows = xs.shape[0]
        if rows < spec.size:
            cause = f"{rows} rows for {spec.size} basis functions; the fit is underdetermined"
        else:
            cause = f"rank {rank} < {spec.size}; returning the minimum-norm solution"
        warnings.warn(f"design matrix at step {i} has {cause}", RankDeficientWarning, stacklevel=2)
    return coeffs


def scaling_from_batch(batch, max_total_degree: int) -> BasisSpec:
    """Basis whose per-step boxes track the sampled state distribution.

    Each box is mean +/- max(3 std, 1) per coordinate, so the bulk of the
    samples lands inside [-1, 1] and the design matrix stays conditioned even
    for nearly deterministic steps.
    """
    lo, hi = _step_box(batch.x)
    return BasisSpec(
        dim=batch.dim, max_total_degree=max_total_degree, scale_lo=lo, scale_hi=hi
    )


def _step_box(x: np.ndarray) -> tuple:
    """Per-step, per-coordinate box mean +/- max(3 std, 1) of the states ``x``.

    numpy sums over axis 0 row after row with no temporary (pairwise for rows
    one element wide, which take the whole-array ``std``), so ``mean`` is one
    reduction, and blocks of about 512 KB of rows, each carrying the running
    sum in as its first row, give the bytes of ``std(axis=0)`` with no
    temporary the size of ``x``.
    """
    mean = x.mean(axis=0)
    if x[0].size == 1:
        std = x.std(axis=0)
    else:
        rows = max(1, (1 << 19) // x[0].nbytes)
        buf = np.empty((rows + 1,) + x.shape[1:])
        total = None
        for a in range(0, len(x), rows):
            part = x[a : a + rows]
            block = buf[1 : 1 + len(part)]
            np.square(np.subtract(part, mean, out=block), out=block)
            if total is not None:
                buf[0] = total
                block = buf[: 1 + len(part)]
            total = block.sum(axis=0)
        std = np.sqrt(total / len(x))
    half = np.maximum(3.0 * std, 1.0)
    return mean - half, mean + half

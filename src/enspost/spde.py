"""Finite-element operators and Markov random field machinery on a mesh.

The random field X(s) = Σ_k w_k ψ_k(s) over piecewise-linear basis
functions has jointly Gaussian weights with sparse precision Q(κ, τ), a
weighted sum of fixed matrices built from the lumped mass matrix C and the
stiffness matrix G: Q = τ²(κ²C + G) for the default smoothness α = 1 and
Q = τ²(κ⁴C + 2κ²G + GC⁻¹G) for α = 2 (Lindgren, Rue & Lindström 2011).
κ > 0 is an inverse length scale (1/km) and τ > 0 scales the field.

Because the sparsity pattern does not depend on (κ, τ), factorization is
split into a symbolic step (`BandPattern`: fill-reducing permutation and
banded storage maps, done once) and a numeric step (LAPACK dpbtrf/dtbtrs
on the band, `SparseCholesky`) that every caller shares.

Neumann boundary conditions are implicit in the assembly; the usual
variance inflation near the hull is accepted since the domain is not
extended beyond the data region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpotrf, dtbtrs, dtrtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesh import Mesh


@dataclass
class SpdeOperators:
    """Lumped mass matrix C (diagonal, km²) and stiffness matrix G."""

    C: sp.dia_matrix
    G: sp.csr_matrix
    K: int

    @property
    def c_diag(self) -> np.ndarray:
        return self.C.diagonal()

    def terms(self, alpha: int = 1) -> tuple:
        """The fixed matrices that `precision_weights` combine into Q:
        (C, G) for alpha=1 and (C, G, GC⁻¹G) for alpha=2."""
        if alpha == 1:
            return (self.C, self.G)
        return (self.C, self.G, self.G @ sp.diags(1.0 / self.c_diag) @ self.G)


@dataclass
class Precision:
    """Sparse SPD precision matrix of the basis weights."""

    Q: sp.csc_matrix

    @property
    def shape(self):
        return self.Q.shape


def assemble_fem(mesh: Mesh) -> SpdeOperators:
    """Assemble P1 mass-lumped C and stiffness G on the mesh.

    Per triangle with area A and barycentric gradients ∇λ_i:
    G_ij += A ∇λ_i·∇λ_j and C_ii += A/3.
    """
    K, tri = mesh.n_vertices, mesh.triangles
    p = mesh.vertices[tri]                      # (T, 3, 2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * np.abs(det)
    bad = np.flatnonzero((area <= 0.0) | ~np.isfinite(area))
    if len(bad):
        raise ValueError(f"degenerate triangle {tri[bad[0]].tolist()} (area {area[bad[0]]})")
    # gradients of the three barycentric coordinates: row a of a triangle is
    # (y_{a+1} − y_{a+2}, x_{a+2} − x_{a+1}) / det, vertex indices mod 3
    nxt, prv = p[:, [1, 2, 0]], p[:, [2, 0, 1]]
    grads = np.stack([nxt[..., 1] - prv[..., 1], prv[..., 0] - nxt[..., 0]], axis=2)
    grads /= det[:, None, None]
    local = area[:, None, None] * (grads @ grads.transpose(0, 2, 1))
    # (row, col, value) triples and the C sums in triangle-major (a, b) order
    G = sp.csr_matrix((local.ravel(), (np.repeat(tri, 3, axis=1).ravel(),
                                       np.tile(tri, 3).ravel())), shape=(K, K))
    c_diag = np.zeros(K)
    np.add.at(c_diag, tri.ravel(), np.repeat(area / 3.0, 3))
    G.sum_duplicates()
    C = sp.diags(c_diag)
    return SpdeOperators(C=C, G=G, K=K)


def precision_weights(kappa: float, tau: float, alpha: int = 1) -> tuple:
    """Weights of `SpdeOperators.terms(alpha)` in Q(κ, τ): (τ²κ², τ²) for
    alpha=1 and (τ²κ⁴, 2τ²κ², τ²) for alpha=2."""
    t2, k2 = tau**2, kappa**2
    if alpha == 1:
        return (t2 * k2, t2)
    if alpha == 2:
        return (t2 * k2 * k2, 2.0 * t2 * k2, t2)
    raise ValueError("alpha must be 1 or 2")


def precision(ops: SpdeOperators, kappa: float, tau: float, alpha: int = 1) -> Precision:
    """Precision matrix Q(κ, τ) of the field weights."""
    if kappa <= 0 or tau <= 0:
        raise ValueError("kappa and tau must be > 0")
    weights = precision_weights(kappa, tau, alpha)
    Q = sum(w * T for w, T in zip(weights, ops.terms(alpha)))
    return Precision(Q=sp.csc_matrix(Q))


class NonFiniteError(ValueError):
    """A matrix handed to the factorization holds inf or NaN."""


class BandPattern:
    """Symbolic analysis of a fixed sparsity pattern, done once for any
    number of numeric factorizations (Rue & Held 2005, ch. 2.4).

    The matrix is a weighted sum Σ_t w_t T_t of fixed sparse symmetric
    terms.  The union of their patterns is reordered with a deterministic
    fill-reducing (reverse Cuthill-McKee) permutation and mapped into lower
    banded storage.  Rows and columns listed in `dense` (e.g. fixed effects
    coupled to everything) are pivoted to the end and eliminated as a dense
    border block so they do not blow up the bandwidth.

    The band, the border and the corner are consecutive parts of one flat
    buffer.  Each term keeps only its entries that land in the buffer (the
    lower band, the dense rows' border and the corner) together with their
    buffer positions, so a numeric assembly adds each term's weighted values
    straight into place, in term order.
    """

    def __init__(self, terms, dense=()):
        terms = [sp.coo_matrix(t) for t in terms]
        n = terms[0].shape[0]
        if any(t.shape != (n, n) for t in terms):
            raise ValueError("matrix must be square")
        for t in terms:
            t.sum_duplicates()
        keys = [t.row.astype(np.int64) * n + t.col for t in terms]
        union = np.unique(np.concatenate(keys))

        is_dense = np.zeros(n, dtype=bool)
        is_dense[list(dense)] = True
        self.n = n
        sparse_idx = np.flatnonzero(~is_dense)
        self.dense_idx = np.flatnonzero(is_dense)
        ns, nd = len(sparse_idx), len(self.dense_idx)
        local = np.empty(n, dtype=np.int64)
        local[sparse_idx] = np.arange(ns)
        local[self.dense_idx] = np.arange(nd)
        row_dense, col_dense = is_dense[union // n], is_dense[union % n]
        rows, cols = local[union // n], local[union % n]

        in_band = ~row_dense & ~col_dense
        pattern = sp.csr_matrix(
            (np.ones(int(in_band.sum())), (rows[in_band], cols[in_band])), shape=(ns, ns)
        )
        perm = np.asarray(reverse_cuthill_mckee(pattern, symmetric_mode=True))
        # row of the original matrix held by each band row
        self.band_rows = sparse_idx[perm]
        invperm = np.empty(ns, dtype=np.int64)
        invperm[perm] = np.arange(ns)
        pr, pc = invperm[rows[in_band]], invperm[cols[in_band]]
        self.bw = int(np.max(np.abs(pr - pc))) if len(pr) else 0

        # buffer position of every union entry, −1 where it is dropped;
        # the band is column-major (Fortran), the layout LAPACK works in
        self._border_at = (self.bw + 1) * ns
        self._corner_at = self._border_at + nd * ns
        dest = np.full(len(union), -1, dtype=np.int64)
        lower = pr >= pc
        dest[np.flatnonzero(in_band)[lower]] = (pc * (self.bw + 1) + pr - pc)[lower]
        border = row_dense & ~col_dense
        dest[border] = self._border_at + rows[border] * ns + invperm[cols[border]]
        corner = row_dense & col_dense
        dest[corner] = self._corner_at + rows[corner] * nd + cols[corner]
        # every term's kept entries, concatenated in term order, with the
        # index of the term each came from
        pos = [dest[np.searchsorted(union, key)] for key in keys]
        self._pos = np.concatenate([p[p >= 0] for p in pos])
        self._data = np.concatenate([t.data[p >= 0] for p, t in zip(pos, terms)])
        self._term = np.repeat(np.arange(len(terms)), [int((p >= 0).sum()) for p in pos])

    def scatter(self, weights):
        """Band (Fortran-ordered for dpbtrf), border and corner blocks of
        Σ_t weights[t]·terms[t], as views of one flat buffer.  A non-finite
        entry raises `NonFiniteError`."""
        # bincount adds in input order: per position, term by term onto 0.0
        buf = np.bincount(self._pos, np.asarray(weights, dtype=float)[self._term] * self._data,
                          self._corner_at + len(self.dense_idx) ** 2)
        if not np.isfinite(buf).all():
            raise NonFiniteError("array must not contain infs or NaNs")
        ns, nd = len(self.band_rows), len(self.dense_idx)
        return (buf[:self._border_at].reshape((self.bw + 1, ns), order="F"),
                buf[self._border_at:self._corner_at].reshape(nd, ns),
                buf[self._corner_at:].reshape(nd, nd))

    def factor(self, weights) -> "SparseCholesky":
        """Numeric Cholesky factor of Σ_t weights[t]·terms[t]."""
        chol = SparseCholesky.__new__(SparseCholesky)
        chol._factor(self, *self.scatter(weights))
        return chol


class SparseCholesky:
    """Cholesky factorization Q = P L Lᵀ Pᵀ of a sparse SPD matrix.

    P and the storage layout come from a `BandPattern`; the band is factored
    with LAPACK dpbtrf and both triangular solves use dtbtrs on that same
    lower band.  Non-finite input raises `NonFiniteError` (a ValueError);
    a matrix that is not positive definite raises LinAlgError.
    """

    def __init__(self, Q, dense=()):
        pattern = BandPattern([Q], dense)
        self._factor(pattern, *pattern.scatter((1.0,)))

    def _factor(self, pattern, ab, B, F):
        self.n = pattern.n
        self._pattern = pattern
        self._cab, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0 or (self._cab[0] <= 0).any():
            raise np.linalg.LinAlgError("precision not positive definite")
        # dense border: L_s W = Bᵀ, then the Schur complement S = F − WᵀW;
        # LAPACK is not called on an empty border (zero-size operands)
        self._W = np.zeros((ab.shape[1], 0))
        self._Lf = np.zeros((0, 0))
        if F.size:
            self._W = self._solve_L_sparse(B.T)
            self._Lf, info = dpotrf(F - self._W.T @ self._W, lower=1, clean=1)
            if info != 0:
                raise np.linalg.LinAlgError("precision not positive definite")

    @property
    def logdet(self) -> float:
        return 2.0 * float(np.log(self._cab[0]).sum() + np.log(self._Lf.diagonal()).sum())

    def _solve_L_sparse(self, y):
        return dtbtrs(self._cab, y, uplo="L")[0]

    def _solve_Lt_sparse(self, z):
        return dtbtrs(self._cab, z, uplo="L", trans="T")[0]

    def _solve_dense(self, y, trans=0):
        return dtrtrs(self._Lf, y, lower=1, trans=trans)[0] if self._Lf.size else y

    def _unpermute(self, x1, x2):
        out = np.empty((self.n, x1.shape[1]))
        out[self._pattern.band_rows] = x1
        out[self._pattern.dense_idx] = x2
        return out

    def solve(self, b):
        """Solve Q x = b (vector or matrix right-hand side)."""
        b = np.asarray(b, dtype=float)
        B = b.reshape(self.n, -1)
        p = self._pattern
        # forward: L [y1; y2] = [bs; bd]
        y1 = self._solve_L_sparse(B[p.band_rows])
        y2 = self._solve_dense(B[p.dense_idx] - self._W.T @ y1)
        # backward: Lᵀ [x1; x2] = [y1; y2]
        x2 = self._solve_dense(y2, trans=1)
        out = self._unpermute(self._solve_Lt_sparse(y1 - self._W @ x2), x2)
        return out[:, 0] if b.ndim == 1 else out

    def solve_Lt(self, z):
        """Solve Lᵀ x = z where Q = P L Lᵀ Pᵀ; maps N(0, I) draws to N(0, Q⁻¹)."""
        z = np.asarray(z, dtype=float)
        Z = z.reshape(self.n, -1)
        ns = len(self._pattern.band_rows)
        x2 = self._solve_dense(Z[ns:], trans=1)
        out = self._unpermute(self._solve_Lt_sparse(Z[:ns] - self._W @ x2), x2)
        return out[:, 0] if z.ndim == 1 else out


def sample_gmrf(Q: Precision, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` zero-mean weight vectors with covariance Q⁻¹.

    Factors Q = LLᵀ (sparse Cholesky) and solves Lᵀw = z for standard
    normal z; deterministic given the generator state.
    """
    chol = SparseCholesky(Q.Q)
    z = rng.standard_normal((Q.shape[0], count))
    w = chol.solve_Lt(z)
    return np.ascontiguousarray(w.T)


def spde_logdet_factory(ops: SpdeOperators):
    """Fast log-determinant of Q(κ, τ) for repeated hyperparameter sweeps.

    Uses the generalized eigenvalues λ of (G, C) computed once:
    logdet Q = 2K log τ + Σ log(κ² + λ) + Σ log C_ii for alpha=1 and
    2K log τ + 2Σ log(κ² + λ) + Σ log C_ii for alpha=2.
    """
    from scipy.linalg import eigh

    c = ops.c_diag
    sq = 1.0 / np.sqrt(c)
    Gs = (ops.G.toarray() * sq[:, None]) * sq[None, :]
    lam = eigh(0.5 * (Gs + Gs.T), eigvals_only=True)
    lam = np.clip(lam, 0.0, None)
    log_c = float(np.sum(np.log(c)))
    K = ops.K

    def logdet(kappa: float, tau: float, alpha: int = 1) -> float:
        body = float(np.log(kappa**2 + lam).sum())
        if alpha == 1:
            return 2 * K * np.log(tau) + body + log_c
        return 2 * K * np.log(tau) + 2 * body + log_c

    return logdet

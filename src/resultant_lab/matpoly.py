"""Matrix polynomials and the polynomial eigenvalue problem.

P(lambda) = sum_{i=0}^{K} A_i phi_i(lambda) with square complex
coefficient matrices, expressed in a degree-graded basis.  Eigenvalues
are computed by linearizing P into a block-companion generalized pencil
built from the basis recurrence and handing the pencil to a dense QZ
solver.  Right eigenvectors come from the leading block of the pencil
eigenvector, left eigenvectors from the transposed problem (the same QZ
run with left vectors requested), and both are refined against P itself
before residuals are reported.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import (DegreeGradedBasis, basis_eval_all, basis_from_json,
                    basis_to_json, clenshaw_shifts)

__all__ = [
    "MatrixPolynomial",
    "Eigenpair",
    "EigenSolveError",
    "NotRegularError",
    "StructureError",
    "matpoly_eval",
    "matpoly_deriv_eval",
    "linearize",
    "polyeig",
    "eig_condition",
    "matpoly_to_json",
    "matpoly_from_json",
]

log = logging.getLogger(__name__)

_EPS = np.finfo(float).eps


class EigenSolveError(RuntimeError):
    """The dense eigensolver failed on the linearized pencil."""


class NotRegularError(EigenSolveError):
    """det P(lambda) vanished at every probe: P looks non-regular."""


class StructureError(RuntimeError):
    """A structured eigenvector failed its residual check; the resultant
    construction and the closed-form vector disagree."""


@dataclass(frozen=True)
class MatrixPolynomial:
    """Stack of K + 1 coefficient matrices A_0, ..., A_K of size N."""

    basis: DegreeGradedBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ValueError("coeffs must have shape (K + 1, N, N)")
        if c.shape[0] < 1:
            raise ValueError("need at least the constant coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def size(self):
        return self.coeffs.shape[1]

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    @property
    def degree_deflated(self):
        """True when the declared leading coefficient is exactly zero."""
        return self.degree >= 1 and not np.any(self.coeffs[-1])

    @property
    def coeff_scale(self):
        """max_i ||A_i||_2, the natural perturbation scale."""
        return max(np.linalg.norm(a, 2) for a in self.coeffs)


@dataclass(frozen=True)
class Eigenpair:
    """Eigenvalue with unit right/left eigenvectors and their residuals.

    residual_right = ||P(lam) v||_2 / ||v||_2 and
    residual_left = ||w^T P(lam)||_2 / ||w||_2 (plain transpose).
    """

    lam: complex
    right: np.ndarray
    left: np.ndarray
    residual_right: float
    residual_left: float


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def matpoly_eval(P, lam):
    """P(lam) = sum_i A_i phi_i(lam) by forward basis evaluation."""
    phis = basis_eval_all(P.basis, P.degree, complex(lam))
    return np.tensordot(phis, P.coeffs, axes=([0], [0]))


def matpoly_deriv_eval(P, lam):
    """P'(lam) through the shift identity, applied to the matrix stack."""
    K = P.degree
    if K == 0:
        return np.zeros_like(P.coeffs[0])
    b = clenshaw_shifts(P.basis, P.coeffs, complex(lam))  # b[i] = b_{i+1}
    phis = basis_eval_all(P.basis, K - 1, complex(lam))
    al = P.basis.table(K - 1).alpha[:K]
    return np.tensordot(al * phis, b[:K], axes=([0], [0]))


def _regularity_probes(P):
    """det P at a few fixed probe points, scaled to O(1) magnitude."""
    rng = np.random.default_rng(20240811)
    if P.basis.domain.kind == "interval":
        span = 0.5 * (P.basis.domain.hi - P.basis.domain.lo)
        mid = 0.5 * (P.basis.domain.hi + P.basis.domain.lo)
    else:
        span = P.basis.domain.radius
        mid = P.basis.domain.center
    probes = mid + span * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    scale = P.coeff_scale
    if scale == 0.0:
        return np.zeros(len(probes))
    return np.array([np.abs(np.linalg.det(matpoly_eval(P, z) / scale))
                     for z in probes])


def matpoly_is_regular(P):
    """Numerical regularity probe: det P(lambda_0) != 0 somewhere."""
    return bool(np.any(_regularity_probes(P) > 1e-12))


# ----------------------------------------------------------------------
# Linearization
# ----------------------------------------------------------------------

def linearize(P):
    """Block-companion pencil (X, Y) with X u = lambda Y u.

    The first K - 1 block rows impose the basis recurrence, so the
    pencil eigenvector stacks phi_0(lambda) z, ..., phi_{K-1}(lambda) z
    on top of each other for every eigenvector z of P.  The last block
    row carries the coefficient matrices.  Finite pencil eigenvalues
    coincide with the eigenvalues of P.
    """
    K, N = P.degree, P.size
    if K == 0:
        raise ValueError("constant matrix polynomial has no eigenvalues")
    tab = P.basis.table(K - 1)
    A = P.coeffs
    X = np.zeros((N * K, N * K), dtype=complex)
    Y = np.zeros_like(X)
    eye = np.eye(N)

    def blk(i, j):
        return slice(i * N, (i + 1) * N), slice(j * N, (j + 1) * N)

    for k in range(K - 1):
        X[blk(k, k)] += tab.beta[k] * eye
        X[blk(k, k + 1)] = -eye
        for j, g in tab.rows[k]:
            X[blk(k, j - 1)] += g * eye
        Y[blk(k, k)] = -tab.alpha[k] * eye
    last = K - 1
    for i in range(K - 1):
        X[blk(last, i)] = A[i]
    for j, g in tab.rows[last]:
        X[blk(last, j - 1)] += g * A[K]
    X[blk(last, last)] = A[K - 1] + tab.beta[last] * A[K]
    Y[blk(last, last)] = -tab.alpha[last] * A[K]
    return X, Y


# ----------------------------------------------------------------------
# Polynomial eigenvalue solver
# ----------------------------------------------------------------------

def _effective_degree(P, tol=1e-13):
    """Largest degree whose coefficient exceeds tol relative to the stack.

    Sampling-based constructions leave roundoff-sized trailing matrices;
    the eigenvalues they would contribute are reported as infinite via
    the count bookkeeping instead of polluting the pencil.
    """
    mags = np.array([np.max(np.abs(a)) for a in P.coeffs])
    top = float(mags.max())
    if top == 0.0:
        return 0
    keep = np.nonzero(mags > tol * top)[0]
    return int(keep.max())


def _svd_candidates(M, v0, w0):
    """Refine eigenvector guesses against M = P(lam).

    One regularized inverse-iteration step seeded by the pencil vectors,
    plus the minimal singular vectors as independent candidates; the
    smallest-residual vector wins on each side.
    """
    U, s, Vh = np.linalg.svd(M)
    floor = (s[0] if s[0] > 0 else 1.0) * _EPS * 10.0
    sreg = np.maximum(s, floor)

    def right_res(v):
        nv = np.linalg.norm(v)
        return np.linalg.norm(M @ v) / nv if nv > 0 else np.inf

    def left_res(w):
        nw = np.linalg.norm(w)
        return np.linalg.norm(M.T @ w) / nw if nw > 0 else np.inf

    cands_v = [np.conj(Vh[-1])]
    if v0 is not None and np.linalg.norm(v0) > 0:
        cands_v.append(Vh.conj().T @ ((U.conj().T @ v0) / sreg))
        cands_v.append(v0)
    v = min(cands_v, key=right_res)

    cands_w = [np.conj(U[:, -1])]
    if w0 is not None and np.linalg.norm(w0) > 0:
        # Solve M^T y = w0 through the factorization of M.
        cands_w.append(np.conj(U @ ((Vh @ np.conj(w0)) / sreg)))
        cands_w.append(w0)
    w = min(cands_w, key=left_res)

    v = v / np.linalg.norm(v)
    w = w / np.linalg.norm(w)
    return v, w, right_res(v), left_res(w)


def polyeig(P, with_infinite=False):
    """All finite eigenpairs of a regular matrix polynomial.

    Parameters
    ----------
    P : MatrixPolynomial
    with_infinite : bool
        Also return the count of infinite eigenvalues, so that
        finite + infinite = size * degree always holds.

    Returns
    -------
    list of Eigenpair, sorted by (Re, Im) of the eigenvalue; with
    with_infinite=True the pair (list, infinite_count).

    Raises
    ------
    NotRegularError
        When det P vanishes at every probe point.
    EigenSolveError
        When the QZ iteration fails or the pencil is singular.
    """
    K, N = P.degree, P.size
    k_eff = _effective_degree(P)
    if k_eff == 0:
        A0 = P.coeffs[0]
        top = np.max(np.abs(A0))
        if top == 0.0 or abs(np.linalg.det(A0 / top)) <= 1e-12:
            raise NotRegularError(
                "matrix polynomial is constant and singular")
        pairs = []
        if with_infinite:
            return pairs, N * K
        return pairs
    work = MatrixPolynomial(P.basis, P.coeffs[:k_eff + 1])
    if not matpoly_is_regular(work):
        raise NotRegularError("determinant vanished at every probe point")
    X, Y = linearize(work)
    try:
        ab, vl, vr = scipy.linalg.eig(X, Y, left=True, right=True,
                                      homogeneous_eigvals=True)
    except Exception as exc:  # LinAlgError or convergence failure
        raise EigenSolveError(f"generalized eigensolver failed: {exc}") from exc
    alphas, betas = ab
    pairs = []
    n_inf = N * (K - k_eff)
    for idx in range(len(alphas)):
        a, b = alphas[idx], betas[idx]
        nrm = np.hypot(abs(a), abs(b))
        if nrm == 0.0:
            raise EigenSolveError("pencil is numerically singular "
                                  "(alpha = beta = 0 from QZ)")
        if abs(b) / nrm <= 1e3 * _EPS:
            n_inf += 1
            continue
        lam = a / b
        v0 = vr[:N, idx]
        # scipy's left vectors satisfy u^H X = lam u^H Y; conjugating
        # turns them into plain-transpose left vectors of the pencil,
        # whose trailing block is a left eigenvector of P.
        w0 = np.conj(vl[-N:, idx])
        v, w, rr, rl = _svd_candidates(matpoly_eval(P, lam), v0, w0)
        pairs.append(Eigenpair(lam=complex(lam), right=v, left=w,
                               residual_right=float(rr),
                               residual_left=float(rl)))
    pairs.sort(key=lambda p: (p.lam.real, p.lam.imag))
    log.debug("polyeig: %d finite, %d infinite (N=%d, K=%d)",
              len(pairs), n_inf, N, K)
    if with_infinite:
        return pairs, n_inf
    return pairs


def eig_condition(P, pair):
    """Eigenvalue condition number ||v|| ||w|| / |w^T P'(lam) v|.

    The products use the vectors exactly as given, so scaling either
    vector cancels.  When the Rayleigh denominator falls below
    1e3 * eps * ||v|| ||w|| ||P'||, the eigenvalue is flagged as
    defective or non-simple by returning +inf.
    """
    v, w = pair.right, pair.left
    dP = matpoly_deriv_eval(P, pair.lam)
    denom = abs(w @ (dP @ v))
    scale = np.linalg.norm(v) * np.linalg.norm(w)
    cutoff = 1e3 * _EPS * scale * np.linalg.norm(dP, 2)
    if denom <= cutoff:
        return float("inf")
    return float(scale / denom)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def matpoly_to_json(P):
    return {"basis": basis_to_json(P.basis),
            "size": P.size,
            "degree": P.degree,
            "coeff_matrices": [{"real": a.real.tolist(),
                                "imag": a.imag.tolist()}
                               for a in P.coeffs]}


def matpoly_from_json(obj):
    basis = basis_from_json(obj["basis"])
    mats = []
    for entry in obj["coeff_matrices"]:
        a = np.asarray(entry["real"], dtype=float)
        if "imag" in entry and entry["imag"] is not None:
            a = a + 1j * np.asarray(entry["imag"], dtype=float)
        mats.append(a)
    coeffs = np.stack(mats)
    P = MatrixPolynomial(basis, coeffs)
    if P.size != int(obj.get("size", P.size)):
        raise ValueError("size field disagrees with coefficient matrices")
    if P.degree != int(obj.get("degree", P.degree)):
        raise ValueError("degree field disagrees with coefficient matrices")
    return P

"""Matrix polynomials and the polynomial eigenvalue problem.

P(lambda) = sum_{i=0}^{K} A_i phi_i(lambda) with square complex
coefficient matrices, expressed in a degree-graded basis.  Eigenvalues
are computed by linearizing P into a block-companion generalized pencil
built from the basis recurrence and handing the pencil to a dense QZ
solver, which is asked for eigenvalues only (real QZ when the pencil is
real).  Eigenvectors are taken separately, for the eigenvalues a caller
keeps, as the minimal singular vectors of P(lambda) itself.
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
    "eigpair",
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
    def coeff_scale(self):
        """max_i ||A_i||_2, the natural perturbation scale."""
        return max(np.linalg.norm(a, 2) for a in self.coeffs)


@dataclass(frozen=True)
class Eigenpair:
    """Eigenvalue with unit right and left eigenvectors.

    right and left are the minimal singular vectors of P(lam), so
    residual = ||P(lam) v||_2 = ||w^T P(lam)||_2 (plain transpose) is
    sigma_min(P(lam)), the smallest residual any unit vector reaches on
    either side.
    """

    lam: complex
    right: np.ndarray
    left: np.ndarray
    residual: float


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


def polyeig(P):
    """Finite eigenvalues of a regular matrix polynomial.

    One eigenvalues-only QZ run on the linearized pencil, in real
    arithmetic when every coefficient is real.  Eigenvectors are not
    computed here; eigpair supplies them for the eigenvalues a caller
    keeps.

    Returns
    -------
    (lams, n_inf): the finite eigenvalues as a complex array sorted by
    (Re, Im), and the count of infinite ones, so that
    len(lams) + n_inf == size * degree always holds.

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
        return np.empty(0, dtype=complex), N * K
    work = MatrixPolynomial(P.basis, P.coeffs[:k_eff + 1])
    if not matpoly_is_regular(work):
        raise NotRegularError("determinant vanished at every probe point")
    X, Y = linearize(work)
    # Real QZ is several times faster than complex QZ on the same pencil;
    # complex pencils (disc domains, complex coefficients) need the latter.
    if not (np.any(X.imag) or np.any(Y.imag)):
        X, Y = X.real, Y.real
    try:
        alphas, betas = scipy.linalg.eigvals(X, Y, homogeneous_eigvals=True)
    except Exception as exc:  # LinAlgError or convergence failure
        raise EigenSolveError(f"generalized eigensolver failed: {exc}") from exc
    nrm = np.hypot(np.abs(alphas), np.abs(betas))
    if np.any(nrm == 0.0):
        raise EigenSolveError("pencil is numerically singular "
                              "(alpha = beta = 0 from QZ)")
    finite = np.abs(betas) / nrm > 1e3 * _EPS
    lams = alphas[finite] / betas[finite]
    lams = lams[np.lexsort((lams.imag, lams.real))]
    n_inf = N * (K - k_eff) + int(np.count_nonzero(~finite))
    log.debug("polyeig: %d finite, %d infinite (N=%d, K=%d)",
              len(lams), n_inf, N, K)
    return lams, n_inf


def eigpair(P, lam):
    """Unit right and left eigenvectors of P at the eigenvalue lam.

    Both come from one SVD of P(lam): v is the right and w the
    (plain-transpose) left singular vector of the smallest singular
    value, which is reported as the residual.
    """
    U, s, Vh = np.linalg.svd(matpoly_eval(P, lam))
    return Eigenpair(lam=complex(lam), right=np.conj(Vh[-1]),
                     left=np.conj(U[:, -1]), residual=float(s[-1]))


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

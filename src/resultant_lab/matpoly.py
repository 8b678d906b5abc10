"""Matrix polynomials and the polynomial eigenvalue problem.

P(lambda) = sum_{i=0}^{K} A_i phi_i(lambda) with square complex
coefficient matrices, expressed in a degree-graded basis.  Eigenvalues
are computed by linearizing P into a block-companion pencil (X, Y)
built from the basis recurrence, then by shift and invert: for a shift
mu inside the basis domain one LU solve forms (X - mu Y)^-1 Y, whose
eigenvalues theta = 1 / (lambda - mu) come from one eigenvalues-only
standard eigensolver run (in real arithmetic when the coefficients are
real and the domain is an interval).  This is not backward stable for
the pencil, but resultant eigenvalues lose up to kappa_eig / kappa_root
of accuracy however they are computed (arXiv 1507.00272); Newton on the
source system is what restores the roots.  Eigenvectors are taken
separately, for the eigenvalues a caller keeps, as the minimal singular
vectors of P(lambda) itself: one stacked SVD over all kept eigenvalues,
with their condition numbers from the stack of P'(lambda).
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import (DegreeGradedBasis, basis_eval_all, basis_eval_deriv_all,
                    basis_from_json, basis_to_json)

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
    "eigvecs_and_conditions",
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
        return np.linalg.norm(self.coeffs, 2, axis=(1, 2)).max()


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
    """P(lam) = sum_i A_i phi_i(lam) by forward basis evaluation.

    lam is a point or an array of points; the result has shape
    shape(lam) + (N, N).
    """
    phis = basis_eval_all(P.basis, P.degree, lam)
    return np.tensordot(phis, P.coeffs, axes=([0], [0]))


def matpoly_deriv_eval(P, lam):
    """P'(lam) = sum_i A_i phi_i'(lam) from the basis derivatives,
    shaped as in matpoly_eval."""
    ders = basis_eval_deriv_all(P.basis, P.degree, lam)[1]
    return np.tensordot(ders, P.coeffs, axes=([0], [0]))


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
    return np.abs(np.linalg.det(matpoly_eval(P, probes) / scale))


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
    coincide with the eigenvalues of P.  X and Y are float64 when the
    coefficients and the recurrence are real, complex otherwise.
    """
    K, N = P.degree, P.size
    if K == 0:
        raise ValueError("constant matrix polynomial has no eigenvalues")
    tab = P.basis.table(K - 1)
    A = P.coeffs
    if not np.any(A.imag):
        A = A.real
    gammas = np.array([g for row in tab.rows[:K] for _, g in row])
    X = np.zeros((N * K, N * K),
                 dtype=np.result_type(A, tab.alpha, tab.beta, gammas))
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


def _shifts(domain):
    """Radius of domain and its fixed sequence of shifts, one per entry
    of _SHIFT_OFFSETS: real points of an interval (the real parts),
    complex points of a disc."""
    if domain.kind == "interval":
        mid = 0.5 * (domain.hi + domain.lo)
        radius = 0.5 * (domain.hi - domain.lo)
        return radius, [mid + radius * f.real for f in _SHIFT_OFFSETS]
    return domain.radius, [domain.center + domain.radius * f
                           for f in _SHIFT_OFFSETS]


# Shift offsets from the domain centre in units of its radius, tried in
# order.  They sit half a radius or more off the centre, where roots of
# structured systems (the origin) cluster: on the coupled-quadratic
# family a shift within half a radius of the four-fold eigenvalue at
# the origin scatters it across the domain margin.  An eigenvalue
# closer than _SHIFT_GAP * radius to a shift makes (X - mu Y)^-1 Y
# huge and blurs every other eigenvalue, so the next shift is tried.
_SHIFT_OFFSETS = (0.5523 + 0.2718j, -0.6180 + 0.1234j, 0.6931 - 0.3817j)
_SHIFT_GAP = 1e-6


def _inverted_pencil(P, mu):
    """M = (X - mu Y)^-1 Y for the linearization (X, Y) of P.

    X is overwritten by X - mu Y (made complex first when mu is), so
    only X, Y and M are alive at once; X and Y are freed on return.
    """
    X, Y = linearize(P)
    X = X.astype(np.result_type(X, mu), copy=False)
    X -= mu * Y
    return np.linalg.solve(X, Y)


def polyeig(P):
    """Finite eigenvalues of a regular matrix polynomial.

    Shift and invert: with mu a shift inside the basis domain and
    (X, Y) the linearized pencil, one LU solve forms
    M = (X - mu Y)^-1 Y and one eigenvalues-only standard eigensolver
    run gives its eigenvalues theta, each mapped back to
    lam = mu + 1 / theta.  A theta indistinguishable from zero,
    |theta| <= 1e3 * eps * ||M||_F, is an infinite eigenvalue.  M is
    real when the coefficients are real and the domain an interval.
    Eigenvectors are not computed here; eigpair supplies them for the
    eigenvalues a caller keeps.

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
        When at every shift mu, X - mu Y is singular or the pencil has
        an eigenvalue within _SHIFT_GAP * radius of mu.
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
    radius, shifts = _shifts(P.basis.domain)
    for mu in shifts:
        try:
            M = _inverted_pencil(work, mu)
            scale = np.linalg.norm(M)
            theta = scipy.linalg.eigvals(M, check_finite=False)
        except np.linalg.LinAlgError:  # X - mu Y singular, or no convergence
            continue
        del M
        # a NaN or inf theta fails this test too
        if np.max(np.abs(theta)) * radius * _SHIFT_GAP < 1.0:
            break
        log.debug("polyeig: eigenvalue within %g of shift %s, next shift",
                  _SHIFT_GAP * radius, mu)
    else:
        raise EigenSolveError(
            f"no usable shift among {len(shifts)}: X - mu Y is singular "
            "or has an eigenvalue next to mu at each")
    finite = np.abs(theta) > 1e3 * _EPS * scale
    lams = mu + 1.0 / theta[finite]
    lams = lams[np.lexsort((lams.imag, lams.real))]
    n_inf = N * (K - k_eff) + int(np.count_nonzero(~finite))
    log.debug("polyeig: %d finite, %d infinite (N=%d, K=%d, shift %s)",
              len(lams), n_inf, N, K, mu)
    return lams, n_inf


def eigvecs_and_conditions(P, lams):
    """Eigenvectors, residuals and condition numbers at every lam.

    One basis_eval_deriv_all over lams gives the stacks P(lam) and
    P'(lam); one stacked SVD of P(lam) gives the vectors and residuals
    as in eigpair, and eig_condition's arithmetic runs on the stacks.

    Returns
    -------
    (right, left, residuals, kappas) with shapes (m, N), (m, N), (m,)
    and (m,) for m = len(lams); row k equals eigpair(P, lams[k]) and
    eig_condition of that pair.
    """
    vals, ders = basis_eval_deriv_all(P.basis, P.degree, lams)
    right, left, residuals = _min_singular_vectors(
        np.tensordot(vals, P.coeffs, axes=([0], [0])))
    kappas = _eig_conditions(np.tensordot(ders, P.coeffs, axes=([0], [0])),
                             right, left)
    return right, left, residuals, kappas


def _min_singular_vectors(Ps):
    """Right and plain-transpose left singular vectors of the smallest
    singular value, and that value, for a stack of matrices."""
    U, s, Vh = np.linalg.svd(Ps)
    return np.conj(Vh[:, -1]), np.conj(U[:, :, -1]), s[:, -1]


def _eig_conditions(dPs, right, left):
    """eig_condition for stacks of P'(lam), v and w."""
    denom = np.abs(np.einsum("mi,mij,mj->m", left, dPs, right))
    scale = np.linalg.norm(right, axis=-1) * np.linalg.norm(left, axis=-1)
    cutoff = (1e3 * _EPS * scale
              * np.linalg.svd(dPs, compute_uv=False)[:, 0])
    return np.divide(scale, denom, out=np.full(len(denom), np.inf),
                     where=~(denom <= cutoff))


def eigpair(P, lam):
    """Unit right and left eigenvectors of P at the eigenvalue lam.

    Both come from one SVD of P(lam): v is the right and w the
    (plain-transpose) left singular vector of the smallest singular
    value, which is reported as the residual.
    """
    right, left, residual = _min_singular_vectors(matpoly_eval(P, [lam]))
    return Eigenpair(lam=complex(lam), right=right[0], left=left[0],
                     residual=float(residual[0]))


def eig_condition(P, pair):
    """Eigenvalue condition number ||v|| ||w|| / |w^T P'(lam) v|.

    The products use the vectors exactly as given, so scaling either
    vector cancels.  When the Rayleigh denominator falls below
    1e3 * eps * ||v|| ||w|| ||P'||, the eigenvalue is flagged as
    defective or non-simple by returning +inf.
    """
    return float(_eig_conditions(matpoly_deriv_eval(P, [pair.lam]),
                                 np.asarray(pair.right)[None],
                                 np.asarray(pair.left)[None])[0])


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

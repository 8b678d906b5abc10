"""Matrix polynomials and the polynomial eigenvalue problem.

P(lambda) = sum_{i=0}^{K} A_i phi_i(lambda) with square complex
coefficient matrices, expressed in a degree-graded basis.  Eigenvalues
come from shift and invert on the block-companion pencil (X, Y) that
the basis recurrence defines: for a shift mu inside the basis domain,
M = (X - mu Y)^-1 Y has the eigenvalues theta = 1 / (lambda - mu), and
one eigenvalues-only standard eigensolver run gives them (in real
arithmetic when the coefficients are real and the domain is an
interval).  X and Y are never formed: the recurrence rows of the pencil
are solved forward in scalars, so M costs one N x N solve with P(mu).
This is not backward stable for the pencil, but resultant eigenvalues
lose up to kappa_eig / kappa_root of accuracy however they are computed
(arXiv 1507.00272); Newton on the source system is what restores the
roots.  Eigenvectors are taken separately, for the eigenvalues a caller
keeps, by one step of inverse iteration with P(lambda) itself: one
stacked N x N solve over all kept eigenvalues for the right and left
vectors, with their condition numbers from the stack of P'(lambda).

P is taken as regular when sigma_min(P(z)) > 1e-12 * sigma_max(P(z)) at
one of four fixed probe points z around the domain; the ratio depends
neither on the scale of P nor on its size N.  The points are tried in
order and the first one that passes decides, so a regular P costs one
N x N SVD.  When P(z) is numerically singular at every probe point,
polyeig raises NotRegularError.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .basis import (NODE_MEMO_SIZE, DegreeGradedBasis, basis_eval_all,
                    basis_eval_deriv_all, basis_from_json, basis_to_json)
from .multipoly import _reject_non_finite

__all__ = [
    "MatrixPolynomial",
    "EigenSolveError",
    "NotRegularError",
    "StructureError",
    "matpoly_eval",
    "matpoly_deriv_eval",
    "polyeig",
    "eigvecs_and_conditions",
    "matpoly_to_json",
    "matpoly_from_json",
]

log = logging.getLogger(__name__)

_EPS = np.finfo(float).eps

# Relative rounding margin between a Frobenius-norm bound of the 2-norm
# (||A||_2 <= ||A||_F <= sqrt(N) ||A||_2) and the largest singular value
# numpy computes.
_NORM_MARGIN = 1e-10


class EigenSolveError(RuntimeError):
    """The dense eigensolver failed on the shifted and inverted pencil."""


class NotRegularError(EigenSolveError):
    """P(z) was numerically singular, sigma_min <= 1e-12 * sigma_max, at
    every probe point: P looks non-regular."""


class StructureError(RuntimeError):
    """A structured eigenvector failed its residual check; the resultant
    construction and the closed-form vector disagree."""


def _check_null_vectors(P, z, v, w):
    """Raise StructureError unless v and w are right and plain-transpose
    left null vectors of P(z) to within 1e-7 * max(||P(z)||_2,
    P.coeff_scale) relative to their norms.  A NaN residual fails.

    ||P(z)||_F / sqrt(N) bounds the 2-norm from below (Golub and Van
    Loan, Matrix Computations, 2.3), so residuals that pass against it
    pass the rule, and the SVD behind ||P(z)||_2 is taken only when they
    do not.  At a multiple root P(z) may vanish entirely, so the scale
    is floored by the coefficient size of the construction itself; that
    floor costs K + 1 spectral norms and is computed only when
    ||P(z)||_2 alone does not pass both residuals.
    """
    P0 = matpoly_eval(P, z)
    res_r = np.linalg.norm(P0 @ v) / np.linalg.norm(v)
    res_l = np.linalg.norm(P0.T @ w) / np.linalg.norm(w)

    def passes(scale):
        return res_r <= 1e-7 * scale and res_l <= 1e-7 * scale

    if passes(np.linalg.norm(P0) / np.sqrt(P.size) * (1.0 - _NORM_MARGIN)):
        return
    scale = np.linalg.norm(P0, 2)
    if not passes(scale):
        scale = max(scale, P.coeff_scale)
        if not passes(scale):
            raise StructureError(
                f"structured eigenvector residuals {res_r:.3e}/{res_l:.3e} "
                f"exceed 1e-7 * ||R|| = {1e-7 * scale:.3e}")


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
        _reject_non_finite(c)
        object.__setattr__(self, "coeffs", c)

    @property
    def size(self):
        return self.coeffs.shape[1]

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    @property
    def coeff_scale(self):
        """max_i ||A_i||_2, the natural perturbation scale; in real
        arithmetic when the coefficients have no imaginary part."""
        A = self.coeffs
        if not np.any(A.imag):
            A = A.real
        return np.linalg.norm(A, 2, axis=(1, 2)).max()


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


@functools.lru_cache(maxsize=NODE_MEMO_SIZE)
def _probe_points(domain):
    """Four fixed complex points scattered around domain, memoised per
    domain as a read-only array."""
    rng = np.random.default_rng(20240811)
    probes = domain.center + domain.radius * (rng.standard_normal(4)
                                              + 1j * rng.standard_normal(4))
    probes.flags.writeable = False
    return probes


def matpoly_is_regular(P):
    """Numerical regularity test: P(z) is far from singular somewhere.

    P is regular when sigma_min(P(z)) > 1e-12 * sigma_max(P(z)) at some
    probe point z.  The four probe points are tried in order, each with
    its own matpoly_eval and SVD (singular values only), and the first
    one that passes decides: a regular P usually costs one point.
    P = 0 is not regular.
    """
    for z in _probe_points(P.basis.domain):
        sv = np.linalg.svd(matpoly_eval(P, z), compute_uv=False)
        if sv[-1] > 1e-12 * sv[0]:
            return True
    return False


# ----------------------------------------------------------------------
# Polynomial eigenvalue solver
# ----------------------------------------------------------------------

def _effective_degree(P, tol=1e-13):
    """Largest degree whose coefficient exceeds tol relative to the stack.

    Sampling-based constructions leave roundoff-sized trailing matrices;
    the eigenvalues they would contribute are reported as infinite via
    the count bookkeeping instead of polluting the pencil.
    """
    mags = np.abs(P.coeffs).max(axis=(1, 2))
    top = float(mags.max())
    if top == 0.0:
        return 0
    keep = np.nonzero(mags > tol * top)[0]
    return int(keep.max())


def _shifts(domain):
    """Radius of domain and its fixed sequence of shifts, one per entry
    of _SHIFT_OFFSETS: real points of an interval (the real parts),
    complex points of a disc."""
    real = domain.kind == "interval"
    return domain.radius, [domain.center
                           + domain.radius * (f.real if real else f)
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


@functools.lru_cache(maxsize=NODE_MEMO_SIZE, typed=True)
def _pencil_table(basis, K, mu, dtype):
    """The scalars of _inverted_pencil for degree K at the shift mu:
    W_0..W_K, shape (K + 1, K), and phi_0(mu)..phi_K(mu), shape (K + 1,),
    both of the given dtype.  They depend on the recurrence alone, so
    they are memoised per (basis, K, mu, dtype) as read-only arrays.
    """
    tab = basis.table(K - 1)
    # row k: the scalars of W_k in columns 0..K-1 and phi_k(mu) in
    # column K, which follow the same recurrence
    T = np.zeros((K + 1, K + 1), dtype=dtype)
    T[0, K] = 1.0
    for k in range(K):
        T[k + 1] = (tab.alpha[k] * mu + tab.beta[k]) * T[k]
        for j, g in tab.rows[k]:
            T[k + 1] += g * T[j - 1]
        if k < K - 1:
            T[k + 1, k] += tab.alpha[k]
    T.flags.writeable = False
    return T[:, :K], T[:, K]


def _inverted_pencil(P, mu):
    """M = (X - mu Y)^-1 Y for the block-companion pencil (X, Y) of P,
    from one N x N solve with P(mu); X and Y are never formed.

    Block row k < K - 1 of X u = lambda Y u is the basis recurrence
    u_{k+1} = (alpha_k lambda + beta_k) u_k + sum_j gamma_{k,j} u_{j-1},
    so an eigenvector stacks u_k = phi_k(lambda) z, and the last block
    row, sum_{i<K} A_i u_i + A_K u_K = 0 with u_K from the same
    recurrence, is P(lambda) z = 0.  Solved block row by block row,
    (X - mu Y) M = Y gives M_k = phi_k(mu) Z_0 + W_k with W_0 = 0 and
    W_{k+1} = (alpha_k mu + beta_k) W_k + sum_j gamma_{k,j} W_{j-1}
    + [k < K - 1] alpha_k E_k, where E_k selects block column k.  Every
    W_k is a row of scalars times the identity, so that recurrence runs
    on scalars, and the last block row leaves
    P(mu) Z_0 = -alpha_{K-1} A_K E_{K-1} - sum_{i=0}^{K} A_i W_i.
    The scalars W_k and phi_k(mu) come from _pencil_table.  M is real
    when the coefficients, the recurrence and mu are.
    Raises LinAlgError when P(mu) is exactly singular.
    """
    K, N = P.degree, P.size
    tab = P.basis.table(K - 1)
    A = P.coeffs
    if not np.any(A.imag):
        A = A.real
    gammas = np.array([g for row in tab.rows[:K] for _, g in row])
    W, phi = _pencil_table(P.basis, K, mu, np.result_type(
        A, tab.alpha, tab.beta, gammas, mu))
    rhs = -np.tensordot(W, A, axes=([0], [0]))  # block column m is rhs[m]
    rhs[K - 1] -= tab.alpha[K - 1] * A[K]
    Z0 = np.linalg.solve(np.tensordot(phi, A, axes=([0], [0])),
                         rhs.transpose(1, 0, 2).reshape(N, K * N))
    M = phi[:K, None, None] * Z0
    rows = np.arange(N)
    M.reshape(K, N, K, N)[:, rows, :, rows] += W[:K]
    return M.reshape(K * N, K * N)


def polyeig(P):
    """Finite eigenvalues of a regular matrix polynomial.

    Shift and invert: with mu a shift inside the basis domain and
    (X, Y) the block-companion pencil, one N x N solve with P(mu) forms
    M = (X - mu Y)^-1 Y (_inverted_pencil) and one eigenvalues-only
    standard eigensolver run gives its eigenvalues theta, each mapped
    back to lam = mu + 1 / theta.  A theta indistinguishable from zero,
    |theta| <= 1e3 * eps * ||M||_F, is an infinite eigenvalue.  M is
    real when the coefficients are real and the domain an interval.
    Eigenvectors are not computed here; eigvecs_and_conditions supplies
    them for the eigenvalues a caller keeps.

    Returns
    -------
    (lams, n_inf): the finite eigenvalues as a complex array sorted by
    (Re, Im), and the count of infinite ones, so that
    len(lams) + n_inf == size * degree always holds.

    Raises
    ------
    NotRegularError
        When P(z) is numerically singular, sigma_min <= 1e-12 *
        sigma_max, at every probe point (matpoly_is_regular); P = 0 and
        a singular constant P are not regular.
    EigenSolveError
        When at every shift mu, P(mu) is singular or the pencil has an
        eigenvalue within _SHIFT_GAP * radius of mu.
    """
    K, N = P.degree, P.size
    k_eff = _effective_degree(P)
    work = MatrixPolynomial(P.basis, P.coeffs[:k_eff + 1])
    if not matpoly_is_regular(work):
        raise NotRegularError(
            "P(z) is numerically singular at every probe point")
    if k_eff == 0:
        return np.empty(0, dtype=complex), N * K
    radius, shifts = _shifts(P.basis.domain)
    for mu in shifts:
        try:
            M = _inverted_pencil(work, mu)
            scale = np.linalg.norm(M)
            # numpy returns real eigenvalues when all of them are real
            theta = np.linalg.eigvals(M).astype(complex, copy=False)
        except np.linalg.LinAlgError:
            # P(mu) singular, M not finite, or no convergence
            continue
        del M
        # a NaN or inf theta fails this test too
        if np.max(np.abs(theta)) * radius * _SHIFT_GAP < 1.0:
            break
        log.debug("polyeig: eigenvalue within %g of shift %s, next shift",
                  _SHIFT_GAP * radius, mu)
    else:
        raise EigenSolveError(
            f"no usable shift among {len(shifts)}: P(mu) is singular "
            "or has an eigenvalue next to mu at each")
    finite = np.abs(theta) > 1e3 * _EPS * scale
    lams = mu + 1.0 / theta[finite]
    lams = lams[np.lexsort((lams.imag, lams.real))]
    n_inf = N * (K - k_eff) + int(np.count_nonzero(~finite))
    log.debug("polyeig: %d finite, %d infinite (N=%d, K=%d, shift %s)",
              len(lams), n_inf, N, K, mu)
    return lams, n_inf


@functools.lru_cache(maxsize=NODE_MEMO_SIZE)
def _start_vector(n):
    """Start vector of the inverse iteration in _null_vectors, memoised
    per length as a read-only array: fixed, so that results repeat, and
    random, so that it is not orthogonal to the null vector of any
    structured P(lambda)."""
    start = np.random.default_rng(20240811).standard_normal(n)
    start.flags.writeable = False
    return start


def _stacked_solve(A, B):
    """x with A[k] x[k] = B[k] for the stacks A (m, n, n) and B (m, n),
    and which rows got one.

    A stacked solve raises when any one matrix has an exactly zero
    pivot; only then is each row solved alone, so that a singular row
    fails by itself (its x stays zero).
    """
    try:
        return (np.linalg.solve(A, B[..., None])[..., 0],
                np.ones(len(A), dtype=bool))
    except np.linalg.LinAlgError:
        pass
    x = np.zeros(B.shape, dtype=np.result_type(A, B))
    solved = np.ones(len(A), dtype=bool)
    for k in range(len(A)):
        try:
            x[k] = np.linalg.solve(A[k], B[k])
        except np.linalg.LinAlgError:
            solved[k] = False
    return x, solved


def _null_vectors(S):
    """Unit approximate null vectors of the square matrices in the
    stack S, by one step of inverse iteration.

    One stacked solve against a fixed start vector (_stacked_solve),
    then normalisation.  A matrix that is singular, or whose solution
    overflows, takes the right singular vector of its smallest singular
    value from its own SVD.
    """
    start = _start_vector(S.shape[-1])
    x, solved = _stacked_solve(S, np.broadcast_to(start, S.shape[:-1]))
    for k in np.nonzero(~solved | ~np.all(np.isfinite(x), axis=-1))[0]:
        x[k] = np.conj(np.linalg.svd(S[k])[2][-1])
    x /= np.max(np.abs(x), axis=-1, keepdims=True)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def eigvecs_and_conditions(P, lams):
    """Eigenvectors, residuals and condition numbers at every lam.

    One basis_eval_deriv_all over lams gives the stacks P(lam) and
    P'(lam).  One step of inverse iteration over the stack of P(lam)
    and of P(lam)^T (_null_vectors) gives the unit right vector v and
    the unit plain-transpose left vector w; the residual is
    ||P(lam) v||_2, and ||w^T P(lam)||_2 is of the same size but not
    equal to it.  The condition number is ||v|| ||w|| / |w^T P'(lam) v|,
    or +inf (defective or non-simple) when that denominator is at most
    1e3 * eps * ||v|| ||w|| ||P'(lam)||_2.  ||P'(lam)||_F bounds the
    2-norm from above, so singular values of P'(lam) are taken only
    for the lams whose denominator does not clear the cutoff with the
    Frobenius norm in its place.

    Returns
    -------
    (right, left, residuals, kappas) with shapes (m, N), (m, N), (m,)
    and (m,) for m = len(lams).
    """
    vals, ders = basis_eval_deriv_all(P.basis, P.degree, lams)
    Ps = np.tensordot(vals, P.coeffs, axes=([0], [0]))
    vecs = _null_vectors(np.concatenate([Ps, Ps.transpose(0, 2, 1)]))
    right, left = vecs[:len(Ps)], vecs[len(Ps):]
    residuals = np.linalg.norm(np.einsum("mij,mj->mi", Ps, right), axis=-1)
    dPs = np.tensordot(ders, P.coeffs, axes=([0], [0]))
    denom = np.abs(np.einsum("mi,mij,mj->m", left, dPs, right))
    scale = np.linalg.norm(right, axis=-1) * np.linalg.norm(left, axis=-1)
    norms = np.linalg.norm(dPs, axis=(1, 2)) * (1.0 + _NORM_MARGIN)
    near = np.nonzero(~(denom > 1e3 * _EPS * scale * norms))[0]
    if len(near):
        norms[near] = np.linalg.svd(dPs[near], compute_uv=False)[:, 0]
    cutoff = 1e3 * _EPS * scale * norms
    kappas = np.divide(scale, denom, out=np.full(len(denom), np.inf),
                       where=~(denom <= cutoff))
    return right, left, residuals, kappas


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
            # 1j * inf has a NaN real part; the constructor rejects both
            with np.errstate(invalid="ignore"):
                a = a + 1j * np.asarray(entry["imag"], dtype=float)
        mats.append(a)
    coeffs = np.stack(mats)
    P = MatrixPolynomial(basis, coeffs)
    if P.size != int(obj.get("size", P.size)):
        raise ValueError("size field disagrees with coefficient matrices")
    if P.degree != int(obj.get("degree", P.degree)):
        raise ValueError("degree field disagrees with coefficient matrices")
    return P

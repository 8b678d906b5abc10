"""Matrix polynomials and the polynomial eigenvalue problem.

P(lambda) = sum_{i=0}^{K} A_i phi_i(lambda) with square coefficient
matrices, expressed in a degree-graded basis.  The matrices are stored
by the library's dtype rule (multipoly._demote): float64 when no entry
has an imaginary part, complex128 otherwise, and every array computed
from them takes its dtype by numpy promotion.  Eigenvalues come from
shift and invert on the block-companion pencil (X, Y) that the basis
recurrence defines: for a shift mu inside the basis domain,
M = (X - mu Y)^-1 Y has the eigenvalues theta = 1 / (lambda - mu), and
one eigenvalues-only standard eigensolver run gives them (in real
arithmetic when the coefficients are real and the domain is an
interval).  X and Y are never formed: M takes the divided differences
of the basis at mu, from the Clenshaw shifts of basis.py, and one
N x N solve with P(mu), contracted once per shift from the basis values
phi(mu) that the plan holds, so no recurrence runs at the shifts.
Every contraction of the coefficient stack with basis values (P(mu),
the right side of that solve, the stack of P(lambda)) is one reshape
and one np.dot.  This is not backward stable for the pencil, but
resultant eigenvalues lose up to kappa_eig / kappa_root of accuracy
however they are computed (arXiv 1507.00272); Newton on the source
system is what restores the roots.  Eigenvectors are taken separately, for the
eigenvalues a caller keeps, by one step of inverse iteration with
P(lambda) itself: one stacked N x N solve over all kept eigenvalues for
the right and left vectors (eigvecs); condition numbers are measured
at the polished roots (rootfinder).

The shifts also witness regularity: polyeig takes the singular values
of P(mu) at each shift in order, the matrix the solve then factors,
and passes over a mu where sigma_min <= 1e-12 * sigma_max, a ratio
that depends neither on the scale of P nor on its size N.  A regular
P costs one N x N SVD, at a real point when the coefficients are real
and the domain an interval.  When P(mu) is numerically singular at
every shift, polyeig raises NotRegularError.
The shifts, their scalars and the start vector of the inverse
iteration depend on the basis and the shape alone and are cached
(_plan).
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .basis import (PLAN_CACHE_SIZE, DegreeGradedBasis, _reject_non_finite,
                    basis_eval_all, basis_to_json, clenshaw_shifts)
from .multipoly import _demote

__all__ = [
    "MatrixPolynomial",
    "EigenSolveError",
    "NotRegularError",
    "StructureError",
    "matpoly_eval",
    "polyeig",
    "eigvecs",
    "matpoly_to_json",
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
    """P(mu) was numerically singular, sigma_min <= 1e-12 * sigma_max, at
    every shift of polyeig: P looks non-regular."""


class StructureError(RuntimeError):
    """A structured eigenvector failed its residual check; the resultant
    construction and the closed-form vector disagree."""


def _checked_root(root, d):
    """root as a one-dimensional array of d components; raises
    ValueError when its length is not d or a component is NaN or
    infinite."""
    root = np.atleast_1d(np.asarray(root))
    if root.shape != (d,):
        raise ValueError(f"root must have length {d}")
    _reject_non_finite(root, "root components")
    return root


def _norm(x):
    """||x||_2 of the whole array, the Frobenius norm of a matrix, by
    np.linalg.norm's own formula and in its bits: x raveled in memory
    order, sqrt(x . x), the real and imaginary parts of a complex x
    taken apart.  x is float64 or complex128."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return np.sqrt(x.dot(x))


def _row_norms(x):
    """||x[..., :]||_2 along the last axis, by np.linalg.norm(x,
    axis=-1)'s own formula and in its bits."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _check_null_vectors(z, P0, v, w, coeff_scale):
    """Raise StructureError unless v and w are right and plain-transpose
    left null vectors of P0 = P(z), which the caller evaluates, to
    within 1e-7 * max(||P(z)||_2, coeff_scale()) relative to their
    norms, with coeff_scale a callable that gives P.coeff_scale.  A NaN
    residual fails.

    ||P(z)||_F / sqrt(N) bounds the 2-norm from below (Golub and Van
    Loan, Matrix Computations, 2.3), so residuals that pass against it
    pass the rule, and the SVD behind ||P(z)||_2 is taken only when they
    do not.  At a multiple root P(z) may vanish entirely, so the scale
    is floored by the coefficient size of the construction itself; that
    floor costs K + 1 spectral norms and is computed only when
    ||P(z)||_2 alone does not pass both residuals.  A P(z) that is not
    finite (the hidden component overflows the basis recurrence) fails
    before any residual or SVD is taken.  A finite P(z) whose Frobenius
    norm overflows (entries above about 1e154) is decided by the SVD.
    """
    fro = _norm(P0)
    if not math.isfinite(fro) and not np.all(np.isfinite(P0)):
        raise StructureError(f"P(z) is not finite at z = {z}")
    res_r = _norm(P0 @ v) / _norm(v)
    res_l = _norm(P0.T @ w) / _norm(w)

    def passes(scale):
        return res_r <= 1e-7 * scale and res_l <= 1e-7 * scale

    if (math.isfinite(fro)
            and passes(fro / np.sqrt(len(P0)) * (1.0 - _NORM_MARGIN))):
        return
    scale = np.linalg.norm(P0, 2)
    if not passes(scale):
        scale = max(scale, coeff_scale())
        if not passes(scale):
            raise StructureError(
                f"structured eigenvector residuals {res_r:.3e}/{res_l:.3e} "
                f"exceed 1e-7 * ||R|| = {1e-7 * scale:.3e}")


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Stack of K + 1 coefficient matrices A_0, ..., A_K of size N,
    stored by _demote's rule."""

    basis: DegreeGradedBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = _demote(self.coeffs)
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
        """max_i ||A_i||_2, the natural perturbation scale."""
        return np.linalg.norm(self.coeffs, 2, axis=(1, 2)).max()


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def _contract(phis, A):
    """sum_i phis[i, ...] A[i] for the coefficient stack A, shape (K + 1,
    N, N), as a (points, N * N) array: one reshape of each and one
    np.dot, the product np.tensordot runs, without its wrapper."""
    return np.dot(phis.reshape(len(phis), -1).T, A.reshape(len(A), -1))


def matpoly_eval(P, lam):
    """P(lam) = sum_i A_i phi_i(lam) by forward basis evaluation.

    lam is a point or an array of points; the result has shape
    shape(lam) + (N, N).
    """
    phis = basis_eval_all(P.basis, P.degree, lam)
    return _contract(phis, P.coeffs).reshape(phis.shape[1:]
                                             + P.coeffs.shape[1:])


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
    """The fixed sequence of shifts of domain, one per entry of
    _SHIFT_OFFSETS: real points of an interval (the real parts), complex
    points of a disc."""
    real = domain.kind == "interval"
    return [domain.center + domain.radius * (f.real if real else f)
            for f in _SHIFT_OFFSETS]


# Shift offsets from the domain centre in units of its radius, tried in
# order; an interval takes the real parts.  They sit half a radius or
# more off the centre, where roots of structured systems (the origin)
# cluster: on the coupled-quadratic family a shift within half a radius
# of the four-fold eigenvalue at the origin scatters it across the
# domain margin.  An eigenvalue closer than _SHIFT_GAP * radius to a
# shift makes (X - mu Y)^-1 Y huge and blurs every other eigenvalue, so
# the next shift is tried.
#
# The first shift sits on the ring where resultant eigenvalues bunch, as
# roots of random polynomials do near the unit circle (Shepp and
# Vanderbei, Trans. AMS 347, 1995): on 256 random Cayley d = 3 degree-3
# systems |lambda| has median 0.83, quartiles 0.58-1.05, with the
# domain's radius 1.  A pole at mid-radius maps that ring to thetas of
# nearly equal modulus; a pole on it spreads their moduli, and LAPACK's
# multishift QR with aggressive early deflation (Braman, Byers and
# Mathias, SIMAX 23(4), 2002; used for n > 75) then needs fewer
# sweeps.  eigvals time on 256 such pencils (NK = 162, one BLAS thread)
# against a pole at 0.5523: x1.22 at 0, x1.08 at 0.3, x0.91 at 0.75,
# x0.89 at -0.8, x0.87 at -0.9; the error of the eigenvalue nearest each
# polished root's hidden component, median / p90, is 2.1e-15 / 1.8e-14
# at 0.5523 and 2.9e-15 / 3.4e-14 at -0.8.  Real offsets -0.95, -0.9,
# -0.85, -0.7, 0.75, 0.85, 0.9 and 0.95 each fail a rounding-sensitive
# test (ROADMAP item 5); -0.8 fails none.  _plan caches the shifts, so a
# change to these offsets takes effect only after _plan.cache_clear().
_SHIFT_OFFSETS = (-0.8 + 0.2718j, -0.6180 + 0.1234j, 0.6931 - 0.3817j)
_SHIFT_GAP = 1e-6


def _pencil_table(basis, K, mu, dtype):
    """The scalars of _inverted_pencil for degree K at the shift mu:
    W[i, m] = alpha_m b_{m+1}[phi_i](mu), shape (K + 1, K), from the
    Clenshaw shifts of every phi_i at once in the dtype of the
    coefficients (dtype), the recurrence and mu, and phi_0..phi_K at mu
    from basis_eval_all."""
    alpha = basis.table(K - 1).alpha[:K]
    W = clenshaw_shifts(basis, np.eye(K + 1, dtype=dtype), mu)[:K].T * alpha
    return W, basis_eval_all(basis, K, mu)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(basis, K, N, dtype):
    """Shape-only data of polyeig and eigvecs as read-only arrays:
    (shifts, start), for degree K, size N and the dtype of the
    coefficients (float64 or complex128, as MatrixPolynomial stores
    them; W is real only when both the coefficients and the shifts
    are).  shifts holds (mu, W, phi) per mu of _shifts(basis.domain)
    from _pencil_table; K = 0, a constant P, leaves W empty.  start is
    the start vector of _null_vectors, fixed so that results repeat and
    random so that no structured null vector is orthogonal to it."""
    shifts = tuple((mu, *_pencil_table(basis, K, mu, dtype))
                   for mu in _shifts(basis.domain))
    start = np.random.default_rng(20240811).standard_normal(N)
    for x in (start, *(a for shift in shifts for a in shift[1:])):
        x.flags.writeable = False
    return shifts, start


def _inverted_pencil(P, mu, P_mu, W, phi):
    """M = (X - mu Y)^-1 Y for the block-companion pencil (X, Y) of P,
    from one N x N solve with P_mu = P(mu); X and Y are never formed.

    Row i of W is the divided difference of phi_i at mu in the basis,
    sum_m W[i, m] phi_m(lambda) = (phi_i(lambda) - phi_i(mu)) /
    (lambda - mu) (basis.divided_difference).  Block row k < K of M is
    phi_k(mu) Z_0 + sum_m W[k, m] E_m, E_m selecting block column m,
    with P(mu) Z_0 = -sum_{i=0}^{K} A_i W_i: block column m of the right
    side comes from column m of W, and the top row's
    W[K, K - 1] = alpha_{K-1} carries the A_K term.  By the identity, M
    maps each pencil eigenvector, u_k = phi_k(lambda) z with
    P(lambda) z = 0, to theta u, theta = 1 / (lambda - mu).  W and phi
    are _pencil_table's at mu, and P_mu is P(mu) contracted from phi,
    the matrix polyeig's regularity witness took.  M is real when
    the coefficients, the recurrence and mu are.
    Raises LinAlgError when P(mu) is exactly singular.
    """
    K, N = P.degree, P.size
    rhs = -_contract(W, P.coeffs).reshape(K, N, N)  # block column m is rhs[m]
    Z0 = np.linalg.solve(P_mu, rhs.transpose(1, 0, 2).reshape(N, K * N))
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
    Eigenvectors are not computed here; eigvecs supplies them for the
    eigenvalues a caller keeps.

    Regularity is witnessed at the shifts themselves: at each shift mu,
    in order, the singular values of P(mu) are taken (one contraction
    with the plan's phi(mu), one N x N SVD), and mu is passed over when
    sigma_min <= 1e-12 * sigma_max; a shift that passes forms M from
    that same P(mu).  The first shift that passes decides a constant P,
    which has no finite eigenvalues.  When _effective_degree trims no
    coefficient, polyeig works on P itself rather than on a trimmed
    MatrixPolynomial.

    Returns
    -------
    (lams, n_inf): the finite eigenvalues as a complex array sorted by
    (Re, Im), and the count of infinite ones, so that
    len(lams) + n_inf == size * degree always holds.

    Raises
    ------
    NotRegularError
        When P(mu) is numerically singular, sigma_min <= 1e-12 *
        sigma_max, at every shift; P = 0 and a singular constant P are
        not regular.  A regular P with a numerical eigenvalue at every
        shift raises it too.
    EigenSolveError
        When at every shift that passes, the pencil has an eigenvalue
        within _SHIFT_GAP * radius of mu or the eigensolver fails.
    """
    K, N = P.degree, P.size
    k_eff = _effective_degree(P)
    work = (P if k_eff == K
            else MatrixPolynomial(P.basis, P.coeffs[:k_eff + 1]))
    radius = P.basis.domain.radius
    shifts = _plan(P.basis, k_eff, N, work.coeffs.dtype)[0]
    regular = False
    for mu, W, phi in shifts:
        P_mu = _contract(phi, work.coeffs).reshape(N, N)
        sv = np.linalg.svd(P_mu, compute_uv=False)
        if not sv[-1] > 1e-12 * sv[0]:
            log.debug("polyeig: P(mu) numerically singular at shift %s", mu)
            continue
        if k_eff == 0:
            return np.empty(0, dtype=complex), N * K
        regular = True
        try:
            M = _inverted_pencil(work, mu, P_mu, W, phi)
            scale = _norm(M)
            # numpy returns real eigenvalues when all of them are real
            theta = np.linalg.eigvals(M).astype(complex, copy=False)
        except np.linalg.LinAlgError:
            # P(mu) passed the witness, so it is not exactly singular:
            # M is not finite or the eigensolver did not converge
            continue
        del M
        modulus = np.abs(theta)
        # a NaN or inf theta fails this test too
        if modulus.max() * radius * _SHIFT_GAP < 1.0:
            break
        log.debug("polyeig: eigenvalue within %g of shift %s, next shift",
                  _SHIFT_GAP * radius, mu)
    else:
        if not regular:
            raise NotRegularError(
                "P(mu) is numerically singular at every shift")
        raise EigenSolveError(
            f"no usable shift among {len(shifts)}: at each, P(mu) is "
            "numerically singular, the pencil has an eigenvalue next to "
            "mu, or the eigensolver fails")
    finite = modulus > 1e3 * _EPS * scale
    lams = mu + 1.0 / theta[finite]
    lams = lams[np.lexsort((lams.imag, lams.real))]
    n_inf = N * (K - k_eff) + int(np.count_nonzero(~finite))
    log.debug("polyeig: %d finite, %d infinite (N=%d, K=%d, shift %s)",
              len(lams), n_inf, N, K, mu)
    return lams, n_inf


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


def _null_vectors(S, start):
    """Unit approximate null vectors of the square matrices in the
    stack S, by one step of inverse iteration.

    One stacked solve against the plan's start vector (_stacked_solve),
    then normalisation.  A matrix that is singular, or whose solution
    overflows, takes the right singular vector of its smallest singular
    value from its own SVD.
    """
    x, solved = _stacked_solve(S, start[None].repeat(len(S), axis=0))
    for k in np.nonzero(~solved | ~np.isfinite(x).all(axis=-1))[0]:
        x[k] = np.conj(np.linalg.svd(S[k])[2][-1])
    x /= np.abs(x).max(axis=-1, keepdims=True)
    return x / _row_norms(x)[..., None]


def eigvecs(P, lams):
    """Eigenvectors and residuals at every lam.

    One step of inverse iteration over the stack of P(lam) and of
    P(lam)^T (_null_vectors) gives the unit right vector v and the unit
    plain-transpose left vector w; the residual is ||P(lam) v||_2, and
    ||w^T P(lam)||_2 is of the same size but not equal to it.

    Returns
    -------
    (right, left, residuals) with shapes (m, N), (m, N) and (m,) for
    m = len(lams); the vectors are real when P and every lam are.
    """
    N = P.size
    Ps = _contract(basis_eval_all(P.basis, P.degree, lams),
                   P.coeffs).reshape(-1, N, N)
    start = _plan(P.basis, P.degree, N, P.coeffs.dtype)[1]
    vecs = _null_vectors(np.concatenate([Ps, Ps.transpose(0, 2, 1)]), start)
    right, left = vecs[:len(Ps)], vecs[len(Ps):]
    residuals = _row_norms(np.einsum("mij,mj->mi", Ps, right))
    return right, left, residuals


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

"""End-to-end root finding for square polynomial systems.

One variable is hidden, a resultant matrix polynomial is built (Cayley
for any dimension, Sylvester for bivariate systems), its eigenvalues
supply candidates for the hidden component, the remaining components
are read off the eigenvector structure, every candidate is polished by
Newton iteration on the source system, and the survivors are reported
with residuals, a spurious flag and two condition numbers (one for the
eigenvalue, one for the root itself).

The stage after the eigenvalues works on all candidates at once: one
stacked solve with P(lambda) gives the eigenvectors and residuals of
every kept eigenvalue, and the stack of P'(lambda) their condition
numbers (matpoly.eigvecs_and_conditions); batched Newton takes every
start point a step per round, with one stacked solve and one call of
the evaluation kernel (multipoly._jacobian_and_table); one more
evaluation at the polished points and one stacked SVD of their
Jacobians give the residuals and root conditions.  Every one of those
calls reads one stack of the system's coefficient tensors, made once
per solve and shared with the Cayley construction (HiddenVariableForm
keeps it).  Component recovery is one call over the
stacks of vectors too: each free component comes from the right vector
or, on an axis where that has extent one, from the Cayley left vector,
by one least-squares read of the basis recurrence over every fiber
along the axis.  Only an eigenvalue whose vectors carry no component (a
resultant of size one, as for affine systems) is taken alone: a solve
of the system with the hidden variable fixed there gives its
candidates.

condition_at_root measures conditioning at a known root from one
value/derivative recurrence at the root's components: the structured
eigenvectors, R(z), R'(z) and the Jacobian all read that one table.
The module also ships the closed-form example families used to probe
conditioning behaviour, and JSON/CSV writers for reports.
"""

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

from . import cayley, sylvester
from .basis import DegreeGradedBasis, basis_from_json
from .cayley import cayley_resultant
from .matpoly import (EigenSolveError, MatrixPolynomial, _check_null_vectors,
                      _checked_root, _stacked_solve, eigvecs_and_conditions,
                      polyeig)
from .multipoly import (MultiPoly, PolynomialSystem, _contract_leading,
                        _demote, _jacobian_and_table, _root_conditions,
                        _stack_system, _stacked, eval_with_jacobian,
                        hide_variable, mp_eval)
from .sylvester import sylvester_resultant

__all__ = [
    "SolveOptions",
    "RootRecord",
    "RootReport",
    "solve_system",
    "newton_polish",
    "recover_components",
    "condition_at_root",
    "ConditionRecord",
    "condition_sweep",
    "family_orthogonal_quadratic",
    "family_rotated_quadratic",
    "family_linear",
    "family_coupled_quadratic",
    "random_system_with_root",
    "report_to_json",
    "report_to_csv",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolveOptions:
    """Tuning knobs for solve_system; defaults match the shipped tests."""

    hidden_index: int = None
    taus: tuple = None            # override the Cayley degree bounds
    domain_margin: float = 1e-6   # inflation when filtering eigenvalues
    tol_accept: float = 1e-7      # residual / coefficient-scale threshold
    polish: bool = True

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN fails both checks
        if not 0.0 < self.tol_accept < np.inf:
            raise ValueError("tol_accept must be finite and positive, got "
                             f"{self.tol_accept}")
        if not 0.0 <= self.domain_margin < np.inf:
            raise ValueError("domain_margin must be finite and nonnegative, "
                             f"got {self.domain_margin}")


@dataclass(frozen=True, eq=False)
class RootRecord:
    """One root candidate after polishing."""

    x: np.ndarray
    hidden_value: complex         # eigenvalue the candidate came from
    residuals: np.ndarray         # |p_i(x)| per polynomial
    max_residual: float
    pre_polish_residual: float
    spurious: bool
    eig_condition: float
    root_condition: float         # inf when the Jacobian is singular
    newton_iters: int
    recovery: str                 # "ratio" or "subsolve"


@dataclass(frozen=True, eq=False)
class RootReport:
    """Everything solve_system learned about one system."""

    method: str
    hidden_index: int
    resultant_size: int
    n_eigenvalues: int            # finite eigenvalues of the resultant
    n_infinite: int
    n_outside_domain: int
    n_recovery_failed: int        # in-domain eigenvalues, empty sub-solve
    roots: tuple                  # RootRecord, sorted by hidden component

    @property
    def accepted(self):
        return tuple(r for r in self.roots if not r.spurious)


# ----------------------------------------------------------------------
# Newton polishing
# ----------------------------------------------------------------------

_NEWTON_ITERS = 20   # iteration cap of newton_polish and _newton
_NEWTON_TOL = 1e-14  # relative step size that counts as converged
_DEDUPE_TOL = 1e-8   # relative gap below which two candidates are one root


def newton_polish(sys, x0):
    """Newton iteration on the full system from x0.

    The system's coefficient tensors are stacked once
    (multipoly._stack_system), and each iteration evaluates the values
    and the Jacobian together on that stack: eval_with_jacobian at x0,
    its kernel multipoly._jacobian_and_table at every later iterate
    (_newton).  Returns (x, iterations,
    converged).  The iteration converges when a step falls below
    _NEWTON_TOL * (1 + ||x||_inf), or when it reaches its rounding
    floor: a step no smaller than the previous one, which was already
    below sqrt(eps) * (1 + ||x||_inf).  That step is not taken.  A
    singular Jacobian stops the iteration and reports non-convergence at
    the current point.  It stops after _NEWTON_ITERS iterations.  x0
    is demoted by _demote's rule, so a real start on a real system
    iterates in real arithmetic; x is returned as a complex array.
    """
    x = _demote(np.atleast_1d(x0))[None]
    stack = _stack_system(sys)
    F, J = eval_with_jacobian(stack, x)
    x, iters, converged = _newton(stack, x, F, J)
    return x[0].astype(complex), int(iters[0]), bool(converged[0])


_ROUNDING_FLOOR = np.sqrt(np.finfo(float).eps)


def _newton(sys, x, F, J):
    """newton_polish from every row of x at once, with F and J already
    evaluated at x.  sys is a system or its multipoly._stack_system;
    a system is stacked once here.

    Each round takes the steps of all rows still iterating from one
    stacked solve and evaluates those rows with one _jacobian_and_table
    call.  Every row stops by newton_polish's rule on its own; the
    bookkeeping of a row that stops on a singular Jacobian or at its
    rounding floor runs only in a round where some row does.  The
    iterates take the result type of x and F, so a real start on a
    complex system iterates in complex arithmetic.
    Returns (x, iterations, converged), one entry per row.
    """
    sys = _stack_system(sys)
    x = x.astype(np.result_type(x, F))
    iters = np.full(len(x), _NEWTON_ITERS)
    converged = np.zeros(len(x), dtype=bool)
    # the rows still iterating, their iterates and their last step sizes
    active, xa, prev = np.arange(len(x)), x, np.full(len(x), np.inf)
    for it in range(_NEWTON_ITERS):
        if it:
            F, J = _jacobian_and_table(sys, xa, 0)[1:]
        step, solved = _stacked_solve(J, F)
        if not solved.all():
            iters[active[~solved]] = it
            active, xa, prev, step = (active[solved], xa[solved],
                                      prev[solved], step[solved])
        size = np.abs(step).max(axis=1)
        # a step that stops shrinking once below the rounding floor is
        # noise: stop without taking it
        floored = size >= prev
        if floored.any():
            floored &= prev <= _ROUNDING_FLOOR * (
                1.0 + np.abs(xa).max(axis=1))
            iters[active[floored]] = it
            converged[active[floored]] = True
            keep = ~floored
            active, xa, step, size = (active[keep], xa[keep], step[keep],
                                      size[keep])
        xa = xa - step
        x[active] = xa
        prev = size
        done = size <= _NEWTON_TOL * (1.0 + np.abs(xa).max(axis=1))
        if done.any():
            iters[active[done]] = it + 1
            converged[active[done]] = True
            keep = ~done
            active, xa, prev = active[keep], xa[keep], prev[keep]
        if not len(active):
            break
    return x, iters, converged


# ----------------------------------------------------------------------
# Component recovery from eigenvectors
# ----------------------------------------------------------------------

def _component_from_fibers(U, basis):
    """Least-squares x per entry of the (m, e, r) stack U, whose r
    columns are each proportional to (phi_0(x), ..., phi_{e-1}(x)).

    By the recurrence, x alpha_i U_i = U_{i+1} - beta_i U_i -
    sum_j gamma_{i,j} U_{j-1}, so x = sum conj(alpha U) * pred /
    sum |alpha U|^2 over every slot i < e - 1 and every column.  The
    unknown scale of U cancels and a zero slot drops out of both sums.
    Returns (x, ok), each of shape (m,): ok is False, and x NaN, where
    the denominator is zero or not finite or the numerator is not
    finite.  x is in the result type of U and the recurrence.
    """
    m, e = U.shape[:2]
    tab = basis.table(e - 2)
    # C order, so that each row's sums run slot by slot whatever the
    # strides of the fibers
    U = np.ascontiguousarray(U, dtype=np.result_type(U, tab.dtype))
    pred = U[:, 1:] - tab.beta[:e - 1, None] * U[:, :-1]
    for i in range(e - 1):
        for j, g in tab.rows[i]:
            pred[:, i] -= g * U[:, j - 1]
    a = (tab.alpha[:e - 1, None] * U[:, :-1]).reshape(m, -1)
    den = (a.conj() * a).real.sum(axis=1)
    num = (a.conj() * pred.reshape(m, -1)).sum(axis=1)
    ok = (den != 0.0) & np.isfinite(den) & np.isfinite(num)
    x = np.divide(num, den, out=np.full(m, np.nan, dtype=num.dtype),
                  where=ok)
    return x, ok


def recover_components(resultant, right, left, basis):
    """Free components of the roots encoded in eigenvectors.

    right and left are (m, n) stacks of right and plain-transpose left
    eigenvectors.  At a root the right vector is an outer product of
    basis columns over resultant.col_extents, one axis per free
    variable, and the Cayley left vector one over row_extents.  Axis k
    is read from the right vector when col_extents[k] >= 2, else from
    the left one, by one least-squares read of the basis recurrence
    over all the vector's fibers along that axis
    (_component_from_fibers).

    Returns (components, how): an (m, axes) array, real when the
    vectors and the recurrence are, and an (m,) array of labels,
    "ratio", or "" where a row carries no components (an axis of extent
    one in both vectors, or an axis whose read fails, as on a zero
    vector), with NaN.
    """
    col = resultant.col_extents
    # the Sylvester left vector has no basis structure to read
    row = getattr(resultant, "row_extents", (1,) * len(col))
    right, left = np.asarray(right), np.asarray(left)
    m = len(right)
    # in the dtype of the vectors and of the recurrence (table(0) holds
    # a custom basis's whole table)
    comps = np.full((m, len(col)), np.nan, dtype=np.result_type(
        right, left, basis.table(0).dtype))
    failed = np.full(m, any(c == r == 1 for c, r in zip(col, row)))
    for k in range(len(col)):
        if failed.all():  # no rows, or an axis of extent one in both
            break
        vecs, ext = (right, col) if col[k] > 1 else (left, row)
        fibers = np.moveaxis(vecs.reshape((m,) + ext), k + 1, 1)
        comps[:, k], ok = _component_from_fibers(
            fibers.reshape(m, ext[k], -1), basis)
        failed |= ~ok
    comps[failed] = np.nan
    return comps, np.where(failed, "", "ratio")


_COMBINATION_SEED = 2015  # of _subsolve's standard-normal weights


def _subsolve(sys, lam, hidden):
    """Start points at hidden value lam from a solve of the system with
    x_hidden = lam substituted (hide_variable(...).q_at).

    d - 1 fixed random combinations of the d polynomials make a square
    system in the free variables, solved by solve_system, or by a 1 x 1
    polyeig when one variable is left.  Every point it returns is kept:
    Newton and tol_accept on the full system judge them.  An
    EigenSolveError gives none.  Returns the (c, d) points.
    """
    d = sys.dim
    hv = hide_variable(sys, hidden)
    q = _stacked([hv.q_at(c, lam).coeffs for c in range(d)])
    rng = np.random.default_rng(_COMBINATION_SEED)
    combined = np.dot(rng.standard_normal((d - 1, d)),
                      q.reshape(d, -1)).reshape((d - 1,) + q.shape[1:])
    try:
        if d == 2:
            free = polyeig(MatrixPolynomial(
                sys.basis, combined[0][:, None, None]))[0][:, None]
        else:
            sub = PolynomialSystem(tuple(MultiPoly(sys.basis, d - 1, c)
                                         for c in combined))
            free = np.array([r.x for r in solve_system(sub).roots],
                            dtype=complex).reshape(-1, d - 1)
    except EigenSolveError:
        return np.empty((0, d))
    return np.insert(free, hidden, lam, axis=1)


def _start_points(sys, res, kept, right, left, hidden):
    """Newton start points from the kept eigenvalues and their vectors.

    One recover_components call over the stacks of vectors gives the
    free components and the hidden one is the eigenvalue, set by column
    assignment.  Each row whose recovery failed is replaced by the
    points of its _subsolve, in its place, so the start points stay in
    eigenvalue order.

    Returns (x0, owner, how, n_failed): the (c, d) start points, the
    index into kept and the recovery label of each, and the number of
    eigenvalues that gave no start point.
    """
    comps, how = recover_components(res, right, left, sys.basis)
    x0 = np.empty((len(kept), sys.dim), dtype=np.result_type(kept, comps))
    x0[:, hidden] = kept
    x0[:, np.arange(sys.dim) != hidden] = comps
    owner = np.arange(len(kept))
    ok = how != ""
    failed = np.nonzero(~ok)[0]
    if not len(failed):
        return x0, owner, how, 0
    found = [_subsolve(sys, kept[k], hidden) for k in failed]
    counts = np.array([len(f) for f in found], dtype=int)
    x0 = np.concatenate([x0[ok]] + found)
    owner = np.concatenate([owner[ok], np.repeat(failed, counts)])
    how = np.concatenate([how[ok], np.full(counts.sum(), "subsolve")])
    order = np.argsort(owner, kind="stable")
    return x0[order], owner[order], how[order], int(np.sum(counts == 0))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def _build_resultant(hv, method, taus):
    """The resultant of hv by method, and the function that gives its
    structured eigenvectors at a root from the basis values there
    (cayley._root_vectors, sylvester._root_vectors).  Degree bounds
    (taus) are a Cayley setting; Sylvester rejects them."""
    if method == "cayley":
        return cayley_resultant(hv, taus), cayley._root_vectors
    if method == "sylvester":
        if taus is not None:
            raise ValueError("taus are Cayley degree bounds; the Sylvester "
                             "resultant takes none")
        return sylvester_resultant(hv), sylvester._root_vectors
    raise ValueError(f"unknown method {method!r}")


def solve_system(sys, method="cayley", options=None):
    """Find the roots of a square system inside its domain.

    Parameters
    ----------
    sys : PolynomialSystem
    method : "cayley" or "sylvester"
        Sylvester is bivariate only.
    options : SolveOptions

    Returns
    -------
    RootReport with one RootRecord per distinct candidate, spurious ones
    flagged rather than dropped.

    The kept eigenvalues and the Newton start points are demoted by
    _demote's rule, so a real system on an interval whose kept
    eigenvalues are all real runs in real arithmetic after polyeig; the
    records' x and hidden_value are complex whatever the arithmetic.
    """
    opts = options or SolveOptions()
    hv = hide_variable(sys, opts.hidden_index)
    hidden = hv.hidden_index
    res = _build_resultant(hv, method, opts.taus)[0]
    P = res.matrix_poly
    lams, n_inf = polyeig(P)
    kept = _demote(lams[sys.domain.contains(lams, opts.domain_margin)])
    right, left, _, kappas = eigvecs_and_conditions(P, kept)
    x0, owner, how, n_failed = _start_points(sys, res, kept, right, left,
                                             hidden)
    candidates = []
    if len(x0):
        x0 = _demote(x0)  # sub-solve points come from complex records
        stack = hv._stack
        F, J = _jacobian_and_table(stack, x0, 0)[1:]
        pre = np.abs(F).max(axis=1)
        if opts.polish:
            x, iters, _ = _newton(stack, x0, F, J)
            F, J = _jacobian_and_table(stack, x, 0)[1:]
        else:
            x, iters = x0, np.zeros(len(x0), dtype=int)
        resid = np.abs(F)
        scales = np.array([np.abs(p.coeffs).sum() for p in sys.polys])
        spurious = (resid > opts.tol_accept * scales).any(axis=1)
        # RootRecord fields in order, the scalars from one tolist() each;
        # x and hidden_value are complex whatever the arithmetic
        candidates = [RootRecord(*f) for f in zip(
            x.astype(complex), kept[owner].astype(complex).tolist(), resid,
            resid.max(axis=1).tolist(), pre.tolist(), spurious.tolist(),
            kappas[owner].tolist(), _root_conditions(J).tolist(),
            iters.tolist(), how.tolist())]
    roots = _dedupe(candidates, _DEDUPE_TOL)
    roots.sort(key=lambda r: (r.x[hidden].real, r.x[hidden].imag))
    log.info("solve_system: %d eigenvalues, %d kept roots (%d spurious)",
             len(lams), len(roots),
             sum(1 for r in roots if r.spurious))
    return RootReport(
        method=method, hidden_index=hidden, resultant_size=P.size,
        n_eigenvalues=len(lams), n_infinite=n_inf,
        n_outside_domain=len(lams) - len(kept), n_recovery_failed=n_failed,
        roots=tuple(roots))


def _dedupe(records, tol):
    """Greedy duplicate removal, lowest max_residual first.

    A record is dropped when its max-norm gap to a record already kept
    is at most tol * (1 + ||other.x||_inf).  The gaps between all pairs
    come from one broadcast; only the greedy pass is a loop, and it is
    skipped when no two records are close, as it would keep them all.
    """
    order = sorted(records, key=lambda r: r.max_residual)
    if not order:
        return []
    xs = np.array([r.x for r in order])
    gap = np.abs(xs[:, None, :] - xs[None, :, :]).max(axis=-1)
    close = gap <= tol * (1.0 + np.abs(xs).max(axis=1))
    # the diagonal is never read: a NaN row leaves it False, others True
    np.fill_diagonal(close, False)
    if not close.any():
        return order
    kept = []
    for i in range(len(order)):
        if not close[i, kept].any():
            kept.append(i)
    return [order[i] for i in kept]


# ----------------------------------------------------------------------
# Conditioning probes
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConditionRecord:
    """Eigenvalue and root sensitivities measured at a known root.

    rayleigh equals (-1)**(d - 1 - h) * jacobian_det for hidden index
    h: by Cramer's rule it is the Jacobian determinant with the hidden
    variable's column moved last, d - 1 - h column swaps.  The two agree
    when the last variable is hidden, the default."""

    method: str
    root: np.ndarray
    eig_condition: float
    rayleigh: complex             # w^T R'(hidden) v, structured vectors
    jacobian_det: complex
    root_condition: float


def condition_at_root(sys, root, method="cayley", hidden_index=None):
    """Measure conditioning with the closed-form eigenvectors at a root.

    The eigenvalue condition number uses the structured (unnormalized)
    left/right vectors of the resultant.  The Rayleigh-type product
    w^T R'(z) v they produce equals (-1)**(d - 1 - h) times the Jacobian
    determinant of the system at the root, h the hidden index (Cramer's
    rule, with the hidden variable's column moved last): the two are
    equal when the last variable is hidden, the default.  The record
    exposes both for cross-checking.

    One value/derivative recurrence at the root's d components, up to
    the highest degree any reader needs, serves every reader: v and w
    take the values at the free components; R(z), for the residual
    check, and R'(z) are one matrix-vector product each of the values
    and the derivatives at the hidden component z with the resultant's
    coefficients; and the Jacobian contracts the system's tensors,
    stacked once, with the whole table (multipoly._jacobian_and_table).
    The root is demoted by _demote's rule, so a real root of a real
    system is probed in real arithmetic; the record's fields are
    complex.
    """
    root = _demote(np.atleast_1d(root))
    hv = hide_variable(sys, hidden_index)
    hidden = hv.hidden_index
    res, root_vectors = _build_resultant(hv, method, None)
    root = _checked_root(root, sys.dim)
    P = res.matrix_poly
    table, _, J = _jacobian_and_table(
        hv._stack, root[None],
        max(P.degree, max(res.col_extents) - 1))
    v, w = root_vectors(hv, res, root, table[:, 0, 0])
    z = root[hidden]
    coeffs = P.coeffs.reshape(P.degree + 1, -1)
    R, dR = ((np.ascontiguousarray(table[:P.degree + 1, b, 0, hidden])
              @ coeffs).reshape(P.size, P.size) for b in (0, 1))
    _check_null_vectors(P, z, R, v, w)
    ray = complex(w @ (dR @ v))
    scale = np.linalg.norm(v) * np.linalg.norm(w)
    kappa = float("inf") if ray == 0 else float(scale / abs(ray))
    return ConditionRecord(method=method, root=root.astype(complex),
                           eig_condition=kappa,
                           rayleigh=ray,
                           jacobian_det=complex(np.linalg.det(J[0])),
                           root_condition=float(_root_conditions(J[0])))


def condition_sweep(d, sigmas, method="cayley", seed=None):
    """Conditioning of the monomial coupled-rotation family across sigmas.

    Returns [(sigma, ConditionRecord)]; the closed forms are sigma**-d
    for the Cayley route and sqrt(1 + sigma**2) / sigma**2 for the
    bivariate Sylvester route.
    """
    out = []
    for s in sigmas:
        if method == "sylvester":
            sys = family_rotated_quadratic(s)
        else:
            sys = family_orthogonal_quadratic(d, s, seed=seed)
        rec = condition_at_root(sys, np.zeros(sys.dim), method=method)
        out.append((float(s), rec))
    return out


# ----------------------------------------------------------------------
# Example families
# ----------------------------------------------------------------------

def _basis_by_name(basis_name):
    if isinstance(basis_name, DegreeGradedBasis):
        return basis_name
    return basis_from_json(basis_name)


def _powers_in_basis(basis, n):
    """(n + 1, n + 1) matrix whose row k holds the coefficients of x**k
    in phi_0, ..., phi_n, lower triangular.

    Built row by row from x * phi_j = (phi_{j+1} - beta_j phi_j
    - sum_i gamma_{j,i} phi_{i-1}) / alpha_j; for monomials it is the
    identity.
    """
    tab = basis.table(n - 1)
    M = np.zeros((n + 1, n + 1), dtype=tab.dtype)
    M[0, 0] = 1.0
    for k in range(n):
        for j in range(k + 1):
            c = M[k, j] / tab.alpha[j]
            M[k + 1, j + 1] += c
            M[k + 1, j] -= c * tab.beta[j]
            for i, g in tab.rows[j]:
                M[k + 1, i - 1] -= c * g
    return M


def _from_monomials(basis, coeffs):
    """The polynomial with monomial coefficient tensor coeffs, rewritten
    in basis: one triangular change of basis per axis, so a coefficient
    that no monomial term reaches stays exactly zero."""
    return MultiPoly(basis, coeffs.ndim, _contract_leading(
        coeffs, [_powers_in_basis(basis, e - 1) for e in coeffs.shape]))


def family_orthogonal_quadratic(d, sigma, seed=None, Q=None,
                                basis_name="monomial"):
    """p_i = x_i^2 + sigma * sum_j Q_ij x_j with Q orthogonal.

    The origin is a root with Jacobian sigma * Q, so the root condition
    is 1/sigma and the resultant eigenvalue condition grows like
    sigma**-d.  Q defaults to the identity; a seed draws a Haar-random
    orthogonal matrix instead.  Other bases get the same polynomials by
    an exact change of basis from the monomial coefficients.
    """
    basis = _basis_by_name(basis_name)
    if Q is None:
        if seed is None:
            Q = np.eye(d)
        else:
            rng = np.random.default_rng(seed)
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            Q = q * np.sign(np.diag(r))
    Q = np.asarray(Q, dtype=float)
    polys = []
    for i in range(d):
        coeffs = np.zeros(tuple(3 if a == i else 2 for a in range(d)),
                          dtype=np.result_type(sigma, Q))
        coeffs[tuple(2 if a == i else 0 for a in range(d))] = 1.0
        for j in range(d):
            idx = tuple(1 if a == j else 0 for a in range(d))
            coeffs[idx] += sigma * Q[i, j]
        polys.append(_from_monomials(basis, coeffs))
    return PolynomialSystem(polys=tuple(polys))


def family_rotated_quadratic(sigma, basis_name="monomial"):
    """Bivariate rotation member: the d = 2 case rotated by 45 degrees.

    Q = [[c, c], [-c, c]] with c = sqrt(1/2); the Sylvester route has
    eigenvalue condition sqrt(1 + sigma^2) / sigma^2 at the origin.
    """
    Q = np.sqrt(0.5) * np.array([[1.0, 1.0], [-1.0, 1.0]])
    return family_orthogonal_quadratic(2, sigma, Q=Q, basis_name=basis_name)


def family_linear(d, seed, basis_name="monomial"):
    """Random linear system A x = b with a known root in [-0.9, 0.9]^d.

    A is redrawn until its condition number is at most 100.  Other
    bases get the same polynomials by an exact change of basis from the
    monomial coefficients, so every coefficient of total degree two or
    more stays exactly zero and the Cayley degree bounds collapse as
    Cramer's rule says.  Returns (system, root).
    """
    basis = _basis_by_name(basis_name)
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((d, d))
        if np.linalg.cond(A) <= 100.0:
            break
    root = rng.uniform(-0.9, 0.9, size=d)
    b = A @ root
    polys = []
    for i in range(d):
        coeffs = np.zeros((2,) * d)
        coeffs[(0,) * d] = -b[i]
        for j in range(d):
            coeffs[tuple(1 if a == j else 0 for a in range(d))] = A[i, j]
        polys.append(_from_monomials(basis, coeffs))
    return PolynomialSystem(polys=tuple(polys)), root.astype(complex)


def family_coupled_quadratic(u, basis_name="monomial"):
    """Bivariate pair sharing one small linear coupling term.

    p_1 = x_1^2 + u * c * (x_1 + x_2), p_2 = x_2^2 + u * c * (x_1 + x_2)
    with c = sqrt(1/2).  The origin is a double root for every u: the
    Jacobian there is u * c * [[1, 1], [1, 1]], singular, so its root
    condition is infinite, and a solve may accept several copies of it,
    each up to about sqrt(tol_accept) from the origin.  As u -> 0 the
    Cayley function degenerates toward (s_1 + t_1) * x_2^2, making the
    eigenvalue at the origin increasingly ill conditioned as well.
    Other bases get the same polynomials by an exact change of basis
    from the monomial coefficients.
    """
    basis = _basis_by_name(basis_name)
    c = np.sqrt(0.5)
    c1 = np.zeros((3, 2), dtype=np.result_type(u, float))
    c1[2, 0] = 1.0
    c1[1, 0] = c1[0, 1] = u * c
    # p_2(x_1, x_2) = p_1(x_2, x_1)
    return PolynomialSystem(polys=(_from_monomials(basis, c1),
                                   _from_monomials(basis, c1.T)))


def random_system_with_root(d, degree, seed, basis_name="monomial"):
    """Dense random system adjusted so a drawn point is an exact root.

    Coefficients are standard normal in the requested basis; the
    constant coefficient absorbs the initial value at the root, which is
    drawn uniformly from [-0.7, 0.7]^d.  Returns (system, root).
    """
    basis = _basis_by_name(basis_name)
    rng = np.random.default_rng(seed)
    root = rng.uniform(-0.7, 0.7, size=d).astype(complex)
    polys = []
    # the tensors are real unless the recurrence is complex: only then
    # has the value at the real root an imaginary part
    dtype = basis.table(0).dtype
    for _ in range(d):
        coeffs = rng.standard_normal((degree + 1,) * d).astype(dtype)
        val = mp_eval(MultiPoly(basis, d, coeffs), root)
        # phi_0 = 1, so this zeroes the root value
        coeffs[(0,) * d] -= val if np.iscomplexobj(coeffs) else val.real
        polys.append(MultiPoly(basis, d, coeffs))
    return PolynomialSystem(polys=tuple(polys)), root


# ----------------------------------------------------------------------
# Report serialization
# ----------------------------------------------------------------------

def report_to_json(report):
    roots = []
    for r in report.roots:
        roots.append({
            "x_real": [float(v) for v in r.x.real],
            "x_imag": [float(v) for v in r.x.imag],
            "hidden_value": [r.hidden_value.real, r.hidden_value.imag],
            "residuals": [float(v) for v in r.residuals],
            "max_residual": r.max_residual,
            "pre_polish_residual": r.pre_polish_residual,
            "spurious": r.spurious,
            "eig_condition": r.eig_condition,
            "root_condition": r.root_condition,
            "newton_iters": r.newton_iters,
            "recovery": r.recovery,
        })
    return {
        "method": report.method,
        "hidden_index": report.hidden_index,
        "resultant_size": report.resultant_size,
        "n_eigenvalues": report.n_eigenvalues,
        "n_infinite": report.n_infinite,
        "n_outside_domain": report.n_outside_domain,
        "n_recovery_failed": report.n_recovery_failed,
        "roots": roots,
    }


def report_to_csv(report):
    """CSV with one row per root; floats use shortest round-trip form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = len(report.roots[0].x) if report.roots else 0
    header = []
    for k in range(d):
        header += [f"re_x{k + 1}", f"im_x{k + 1}"]
    header += ["max_residual", "pre_polish_residual", "spurious",
               "eig_condition", "root_condition", "newton_iters", "recovery"]
    writer.writerow(header)
    for r in report.roots:
        row = []
        for k in range(d):
            row += [repr(float(r.x[k].real)), repr(float(r.x[k].imag))]
        row += [repr(r.max_residual), repr(r.pre_polish_residual),
                int(r.spurious), repr(r.eig_condition),
                repr(r.root_condition), r.newton_iters, r.recovery]
        writer.writerow(row)
    return buf.getvalue()

"""End-to-end root finding for square polynomial systems.

One variable is hidden, a resultant matrix polynomial is built (Cayley
for any dimension, Sylvester for bivariate systems), and its eigenvalues
in the domain supply the candidates' hidden component.  The candidates
then live in one table (_Candidates), a row per Newton start point in
eigenvalue order, and each stage fills its columns for every row at
once: one stacked solve with P(lambda) gives the eigenpairs
(matpoly.eigvecs); one recover_components call reads the free
components off the vectors, and an eigenvalue whose vectors carry none
(a resultant of size one) takes the rows of its own sub-solve; batched
Newton steps every row per round with one stacked solve and one call of
the evaluation kernel (multipoly._jacobian_and_table); one more call at
the polished points gives the residuals, the Jacobians behind
kappa_root, and the basis table from which the structured vectors and
R'(x_h) give kappa_eig by condition_at_root's rule (_eig_conditions).
_dedupe marks each duplicate row with the row it merged into, and
RootRecords are built for the surviving rows alone.  Every stage reads
one stack of the system's coefficients, made once per solve, the
construction and the sub-solve with the hidden axis as an index.

The module also ships the closed-form example families used to probe
conditioning behaviour, and JSON/CSV writers for reports.
"""

import csv
import io
import logging
from dataclasses import dataclass, field

import numpy as np

from . import cayley, sylvester
from .basis import DegreeGradedBasis, basis_eval_all, basis_from_json
from .cayley import cayley_resultant, default_taus
from .matpoly import (EigenSolveError, MatrixPolynomial, _check_null_vectors,
                      _checked_root, _contract, _norm, _row_norms,
                      _stacked_solve, eigvecs, polyeig)
from .multipoly import (MultiPoly, PolynomialSystem, _contract_leading,
                        _demote, _jacobian_and_table, _root_conditions,
                        _stacked, hide_variable, mp_eval)
from .sylvester import sylvester_degrees, sylvester_resultant

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
    _table: object = field(default=None, repr=False)  # the _Candidates

    @property
    def accepted(self):
        return tuple(r for r in self.roots if not r.spurious)


@dataclass(eq=False)
class _Candidates:
    """solve_system's candidates, a row per Newton start point in
    eigenvalue order: _start_points fills the first columns, each later
    stage its own, and _dedupe marks duplicates instead of dropping them."""

    lams: np.ndarray              # the kept eigenvalues
    owner: np.ndarray             # per row, its eigenvalue's index in lams
    x0: np.ndarray                # start point
    recovery: np.ndarray          # "ratio" or "subsolve"
    eig_residual: np.ndarray      # ||P(lambda) v|| of the owner's eigenpair
    n_outside: int = 0            # finite eigenvalues outside the domain
    pre_polish: np.ndarray = None  # max |p_i(x0)|
    iters: np.ndarray = None
    converged: np.ndarray = None  # newton_polish's flag
    x: np.ndarray = None          # the polished point
    residuals: np.ndarray = None  # |p_i(x)|
    spurious: np.ndarray = None
    kappa_eig: np.ndarray = None
    kappa_root: np.ndarray = None
    merged_into: np.ndarray = None  # the kept row it duplicates, or -1

    def fates(self):
        """How many finite eigenvalues met each fate.  One without rows
        failed recovery; one whose rows differ takes their best fate."""
        fate = np.ones(len(self.lams), dtype=int)
        if len(self.owner):
            np.maximum.at(fate, self.owner, np.where(
                self.merged_into < 0, 4 - self.spurious, 2))
        counts = np.bincount(fate, minlength=5)
        counts[0] = self.n_outside
        return dict(zip(("outside domain", "recovery failed", "duplicate",
                         "spurious", "accepted"), counts.tolist()))


# ----------------------------------------------------------------------
# Newton polishing
# ----------------------------------------------------------------------

_NEWTON_ITERS = 20   # iteration cap of newton_polish and _newton
_NEWTON_TOL = 1e-14  # relative step size that counts as converged
_DEDUPE_TOL = 1e-8   # relative gap below which two candidates are one root


def newton_polish(sys, x0):
    """Newton iteration on the full system from x0, on its coefficient
    tensors stacked once (multipoly._stacked).

    Returns (x, iterations, converged).  The iteration converges when a
    step falls below _NEWTON_TOL * (1 + ||x||_inf), or at its rounding
    floor: a step no smaller than the previous one, which was already
    below sqrt(eps) * (1 + ||x||_inf), and which is not taken.  It stops
    unconverged on a singular Jacobian, or at _NEWTON_ITERS iterations
    if the last step did not converge.  x0 is demoted by _demote's
    rule, so a real start on a real system iterates in real arithmetic;
    x is returned as a complex array.
    """
    x = _demote(np.atleast_1d(x0))[None]
    if x.shape != (1, sys.dim):
        raise ValueError(f"x0 has shape {x.shape[1:]}, expected ({sys.dim},)")
    stack = _stacked([p.coeffs for p in sys.polys])
    F, J = _jacobian_and_table(sys.basis, stack, x, 0)[1:]
    x, iters, converged = _newton(sys.basis, stack, x, F, J)
    return x[0].astype(complex), int(iters[0]), bool(converged[0])


_ROUNDING_FLOOR = np.sqrt(np.finfo(float).eps)


def _newton(basis, stack, x, F, J):
    """newton_polish from every row of x at once, with F and J already
    evaluated at x, for the system in basis whose stacked coefficient
    tensors (multipoly._stacked) are stack.

    Each round takes the steps of all rows still iterating from one
    stacked solve and evaluates those rows with one _jacobian_and_table
    call.  Every row stops by newton_polish's rule on its own; the
    bookkeeping of a row that stops on a singular Jacobian or at its
    rounding floor runs only in a round where some row does.  The
    iterates take the result type of x and F, so a real start on a
    complex system iterates in complex arithmetic.  Returns (x,
    iterations, converged), one entry per row.
    """
    x = x.astype(np.result_type(x, F))
    iters = np.full(len(x), _NEWTON_ITERS)
    converged = np.zeros(len(x), dtype=bool)
    # the rows still iterating, their iterates and their last step sizes
    active, xa, prev = np.arange(len(x)), x, np.full(len(x), np.inf)
    for it in range(_NEWTON_ITERS):
        if it:
            F, J = _jacobian_and_table(basis, stack, xa, 0)[1:]
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
        fibers = vecs.reshape((m,) + ext).transpose(
            0, k + 1, *(a for a in range(1, len(ext) + 1) if a != k + 1))
        comps[:, k], ok = _component_from_fibers(
            fibers.reshape(m, ext[k], -1), basis)
        failed |= ~ok
    comps[failed] = np.nan
    return comps, np.where(failed, "", "ratio")


_COMBINATION_SEED = 2015  # of _subsolve's standard-normal weights


def _subsolve(hv, lam):
    """Start points at hidden value lam from a solve of the system with
    x_hidden = lam substituted (HiddenVariableForm._freeze).

    d - 1 fixed random combinations of the d polynomials make a square
    system in the free variables, solved by solve_system, or by a 1 x 1
    polyeig when one variable is left.  Every point it returns is kept:
    Newton and tol_accept on the full system judge them.  An
    EigenSolveError gives none.  Returns the (c, d) points.
    """
    d, basis = hv.dim, hv.basis
    q = _demote(hv._freeze(basis_eval_all(basis, hv.coeffs.shape[-1] - 1,
                                          lam)))
    rng = np.random.default_rng(_COMBINATION_SEED)
    combined = np.dot(rng.standard_normal((d - 1, d)),
                      q.reshape(d, -1)).reshape((d - 1,) + q.shape[1:])
    try:
        if d == 2:
            free = polyeig(MatrixPolynomial(
                basis, combined[0][:, None, None]))[0][:, None]
        else:
            sub = PolynomialSystem(tuple(MultiPoly(basis, d - 1, c)
                                         for c in combined))
            free = np.array([r.x for r in solve_system(sub).roots],
                            dtype=complex).reshape(-1, d - 1)
    except EigenSolveError:
        return np.empty((0, d))
    return np.insert(free, hv.hidden_index, lam, axis=1)


def _start_points(hv, res, kept, right, left, eig_residual):
    """The candidate table with its first columns, from the kept
    eigenvalues and their eigenpairs.  One recover_components call gives
    the free components, and the eigenvalue is the hidden one.  An
    eigenvalue whose recovery failed takes one row per point of its
    _subsolve, in its place, so the rows stay in eigenvalue order."""
    comps, how = recover_components(res, right, left, hv.basis)
    x0 = np.empty((len(kept), hv.dim), dtype=np.result_type(kept, comps))
    x0[:, hv.hidden_index] = kept
    x0[:, np.arange(hv.dim) != hv.hidden_index] = comps
    owner, ok = np.arange(len(kept)), how != ""
    if not ok.all():
        found = [_subsolve(hv, kept[k]) for k in np.nonzero(~ok)[0]]
        counts = np.ones(len(kept), dtype=int)
        counts[~ok] = [len(f) for f in found]
        x0 = np.repeat(x0.astype(np.result_type(x0, *found)), counts, axis=0)
        x0[np.repeat(~ok, counts)] = np.concatenate(found)
        owner = np.repeat(owner, counts)
        how = np.where(ok, how, "subsolve")[owner]
        eig_residual = eig_residual[owner]
    return _Candidates(
        lams=kept, owner=owner, x0=_demote(x0),  # sub-solve points are complex
        recovery=how, eig_residual=eig_residual)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def _build_resultant(hv, method, taus):
    """The resultant of hv by method, its degree bounds, and the
    construction's module (cayley or sylvester), whose _root_vectors give
    the structured eigenvectors at a root and _degree how far they read
    the basis values there.  Degree bounds (taus) are a Cayley setting;
    Sylvester rejects them."""
    if method == "cayley":
        res = cayley_resultant(hv, taus)
        return res, res.taus, cayley
    if method == "sylvester":
        if taus is not None:
            raise ValueError("taus are Cayley degree bounds; the Sylvester "
                             "resultant takes none")
        res = sylvester_resultant(hv)
        return res, (res.tau1, res.tau2), sylvester
    raise ValueError(f"unknown method {method!r}")


def solve_system(sys, method="cayley", options=None):
    """Find the roots of a square system inside its domain, by method
    "cayley" (any dimension) or "sylvester" (bivariate only), with
    options a SolveOptions.

    Returns a RootReport with one RootRecord per distinct candidate,
    spurious ones flagged rather than dropped, in the order of
    _record_order, and the candidate table (_Candidates) in its private
    _table.  The kept eigenvalues and the
    start points are demoted by _demote's rule, so a real system on an
    interval whose kept eigenvalues are all real runs in real arithmetic
    after polyeig; the records' x and hidden_value are complex whatever
    the arithmetic.
    """
    opts = options or SolveOptions()
    hv = hide_variable(sys, opts.hidden_index)
    hidden = hv.hidden_index
    res, taus, mod = _build_resultant(hv, method, opts.taus)
    P = res.matrix_poly
    lams, n_inf = polyeig(P)
    kept = _demote(lams[sys.domain.contains(lams, opts.domain_margin)])
    t = _start_points(hv, res, kept, *eigvecs(P, kept))
    t.n_outside = len(lams) - len(kept)
    roots = ()
    if len(t.x0):
        basis, stack, m = sys.basis, hv._stack, len(t.x0)
        F, J = _jacobian_and_table(basis, stack, t.x0, 0)[1:]
        t.pre_polish = np.abs(F).max(axis=1)
        t.x, t.iters, t.converged = t.x0, np.zeros(m, int), np.zeros(m, bool)
        if opts.polish:
            t.x, t.iters, t.converged = _newton(basis, stack, t.x0, F, J)
        table, F, J = _jacobian_and_table(
            basis, stack, t.x, max(P.degree, mod._degree(hv, taus)))
        t.residuals = np.abs(F)
        scales = np.array([np.abs(p.coeffs).sum() for p in sys.polys])
        t.spurious = (t.residuals > opts.tol_accept * scales).any(axis=1)
        v, w = mod._root_vectors(hv, taus, t.x, table[:, 0])
        dR = _contract(table[:P.degree + 1, 1, :, hidden],
                       P.coeffs).reshape(-1, P.size, P.size)
        ray = (w[:, None] @ (dR @ v[..., None]))[:, 0, 0]
        t.kappa_root = _root_conditions(J)
        scale = _row_norms(v) * _row_norms(w)
        t.kappa_eig = _eig_conditions(scale, ray, t.kappa_root)
        max_residual = t.residuals.max(axis=1)
        rows, t.merged_into = _dedupe(t.x, max_residual, _DEDUPE_TOL)
        # RootRecord fields of every row, the scalars from one tolist() each
        fields = list(zip(
            t.x.astype(complex), t.lams[t.owner].astype(complex).tolist(),
            t.residuals, *(c.tolist() for c in (
                max_residual, t.pre_polish, t.spurious, t.kappa_eig,
                t.kappa_root, t.iters, t.recovery))))
        rows = _record_order(t.x[rows, hidden], rows, _DEDUPE_TOL)
        roots = tuple([RootRecord(*fields[i]) for i in rows])
    fates = t.fates()
    log.info("solve_system: %d eigenvalues, %d kept roots (%d spurious)",
             len(lams), len(roots), sum(1 for r in roots if r.spurious))
    return RootReport(
        method=method, hidden_index=hidden, resultant_size=P.size,
        n_eigenvalues=len(lams), n_infinite=n_inf,
        n_outside_domain=fates["outside domain"],
        n_recovery_failed=fates["recovery failed"], roots=roots, _table=t)


def _dedupe(x, max_residual, tol):
    """Greedy duplicate marking of the rows of x, in order of
    max_residual, lowest first and NaN last (a stable argsort).

    A row is a duplicate when its max-norm gap to a row already kept is
    at most tol * (1 + ||other x||_inf); the gaps come from one broadcast.
    Returns (kept, merged_into): the kept rows in that order, and per row
    the first kept row it duplicates, or -1.
    """
    order = np.argsort(max_residual, kind="stable").tolist()
    merged = np.full(len(order), -1)
    gap = np.abs(x[:, None, :] - x[None, :, :]).max(axis=-1)
    close = gap <= tol * (1.0 + np.abs(x).max(axis=1))
    # no pair is close when only the diagonal, never read, holds True
    # (False on a NaN row)
    if np.count_nonzero(close) == np.count_nonzero(close.diagonal()):
        return order, merged
    kept = []
    for i in order:
        hit = close[i, kept]
        if hit.any():
            merged[i] = kept[hit.argmax()]
        else:
            kept.append(i)
    return kept, merged


def _record_order(z, rows, tol):
    """rows sorted by their hidden components z, by (Re, Im).

    Two components with imaginary parts of opposite sign, each within
    tol * (1 + |other|) of the other's conjugate, are a conjugate pair:
    both sort by the smaller of their real parts, so the one with
    negative imaginary part comes first whatever the last bits of Re.
    Python's sort keeps the order of NaN keys.
    """
    sign = np.sign(z.imag)
    near = np.abs(z[:, None] - z.conj()) <= tol * (1.0 + np.abs(z))
    pair = near & near.T & (sign[:, None] * sign < 0)
    re = np.minimum(z.real, np.where(pair, z.real, np.inf).min(
        axis=1, initial=np.inf))
    keys = list(zip(re.tolist(), z.imag.tolist()))
    return [rows[k] for k in sorted(range(len(rows)), key=keys.__getitem__)]


# ----------------------------------------------------------------------
# Conditioning probes
# ----------------------------------------------------------------------

def _eig_conditions(scale, ray, kappa_root):
    """kappa_eig = scale / |ray| at roots, for scale = ||v|| ||w|| and
    ray = w^T R'(x_h) v of the structured vectors there: +inf where ray
    is zero or where kappa_root (_root_conditions) is +inf.  By Cramer's
    rule ray is +-det J, so one decision serves both condition numbers.
    """
    # zero also where J is singular, so kappa_eig is +inf there too
    denom = np.hypot(ray.real, ray.imag) * (kappa_root < np.inf)
    with np.errstate(divide="ignore"):
        return scale / denom


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

    The structured (unnormalized) vectors v, w of the resultant give
    w^T R'(z) v and, by solve_system's rule (_eig_conditions), kappa_eig;
    the record also holds the Jacobian determinant, for cross-checking.
    Only R(z) and R'(z) are formed, not the matrix polynomial: the
    construction is sampled at the hidden value z itself
    (cayley._values_at, sylvester._values_at), so nothing is
    interpolated along the hidden axis.  One value/derivative recurrence
    at the root's d components (multipoly._jacobian_and_table), up to
    the degree its readers need, gives v and w, the hidden variable's
    [phi(z), phi'(z)] and the Jacobian.  The matrix polynomial is built
    only if the residual check reaches its coefficient-scale floor, which
    it takes as a callable.  The root is demoted by _demote's rule, so a
    real root of a real system is probed in real arithmetic; the record's
    fields are complex.  It is checked before anything is built: a root
    of the wrong length or with a NaN or infinite component raises
    ValueError at once.
    """
    root = _checked_root(_demote(np.atleast_1d(root)), sys.dim)
    hv = hide_variable(sys, hidden_index)
    hidden = hv.hidden_index
    if method == "cayley":
        mod, taus = cayley, default_taus(hv)
    elif method == "sylvester":
        mod, taus = sylvester, sylvester_degrees(hv)
    else:
        raise ValueError(f"unknown method {method!r}")
    # the kernel extends the table to the stack's extents, the hidden one
    # among them
    table, _, J = _jacobian_and_table(hv.basis, hv._stack, root[None],
                                      mod._degree(hv, taus))
    v, w = mod._root_vectors(hv, taus, root, table[:, 0, 0])
    R, dR = mod._values_at(hv, taus, np.ascontiguousarray(
        table[:hv.coeffs.shape[-1], :, 0, hidden]))
    _check_null_vectors(root[hidden], R, v, w, lambda: _build_resultant(
        hv, method, None)[0].matrix_poly.coeff_scale)
    ray = complex(w @ (dR @ v))
    kappa_root = _root_conditions(J[0])
    kappa = _eig_conditions(_norm(v) * _norm(w), ray, kappa_root)
    return ConditionRecord(method=method, root=root.astype(complex),
                           eig_condition=float(kappa),
                           rayleigh=ray,
                           jacobian_det=complex(np.linalg.det(J[0])),
                           root_condition=float(kappa_root))


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
    with c = sqrt(1/2).  The origin is a root of intersection
    multiplicity 3 for every u; the fourth root is (-2uc, -2uc).  The
    Jacobian there is u * c * [[1, 1], [1, 1]], singular, so both
    condition numbers are infinite, and a solve may accept several
    copies of the origin, each up to about sqrt(tol_accept) from it.
    As u -> 0 the Cayley function degenerates toward (s_1 + t_1) x_2^2.
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

# the scalar fields of a record and of a report, as the writers order them
_RECORD_SCALARS = ("max_residual", "pre_polish_residual", "spurious",
                   "eig_condition", "root_condition", "newton_iters",
                   "recovery")
_REPORT_SCALARS = ("method", "hidden_index", "resultant_size",
                   "n_eigenvalues", "n_infinite", "n_outside_domain",
                   "n_recovery_failed")


def report_to_json(report):
    roots = [{"x_real": [float(v) for v in r.x.real],
              "x_imag": [float(v) for v in r.x.imag],
              "hidden_value": [r.hidden_value.real, r.hidden_value.imag],
              "residuals": [float(v) for v in r.residuals],
              **{k: getattr(r, k) for k in _RECORD_SCALARS}}
             for r in report.roots]
    return {**{k: getattr(report, k) for k in _REPORT_SCALARS},
            "roots": roots}


def report_to_csv(report):
    """CSV with one row per root; floats use shortest round-trip form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = len(report.roots[0].x) if report.roots else 0
    writer.writerow([f"{part}_x{k + 1}" for k in range(d)
                     for part in ("re", "im")] + list(_RECORD_SCALARS))
    for r in report.roots:
        writer.writerow(
            [repr(float(v)) for z in r.x for v in (z.real, z.imag)]
            + [_csv_cell(getattr(r, k)) for k in _RECORD_SCALARS])
    return buf.getvalue()


def _csv_cell(value):
    """A flag as 0 or 1, a float in shortest round-trip form, anything
    else as the csv module writes it."""
    if isinstance(value, bool):
        return int(value)
    return repr(value) if isinstance(value, float) else value

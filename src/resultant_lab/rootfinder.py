"""End-to-end root finding for square polynomial systems.

One variable is hidden, a resultant matrix polynomial is built (Cayley
for any dimension, Sylvester for bivariate systems), its eigenvalues
supply candidates for the hidden component, the remaining components
are read off the eigenvector structure, every candidate is polished by
Newton iteration on the source system, and the survivors are reported
with residuals, a spurious flag and two condition numbers (one for the
eigenvalue, one for the root itself).

The stage after the eigenvalues works on all candidates at once: one
stacked SVD gives the eigenvectors and residuals of every kept
eigenvalue, and the stack of P'(lambda) their condition numbers
(matpoly.eigvecs_and_conditions); batched Newton takes every start
point a step per round, with one stacked solve and one
eval_with_jacobian call; one more call at the polished points and one
stacked SVD of their Jacobians give the residuals and root conditions.
Only component recovery loops over the candidates.

Eigenvector-based recovery has two layers: ratio of consecutive basis
slots at the largest tensor entry, then a rank-one fit per axis.  When
an axis carries no information (extent one, as happens for systems of
total degree one) candidates fall back to Newton from a small grid of
starting points at the fixed hidden value.

The module also ships the closed-form example families used to probe
conditioning behaviour, and JSON/CSV writers for reports.
"""

import csv
import io
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .basis import DegreeGradedBasis, basis_from_json
from .cayley import cayley_resultant, cayley_root_eigvectors
from .matpoly import eigvecs_and_conditions, matpoly_deriv_eval, polyeig
from .multipoly import (MultiPoly, NonSimpleRootError, PolynomialSystem,
                        _inverse_jacobian_norm, _root_conditions,
                        eval_with_jacobian, hide_variable,
                        interpolate_on_nodes, mp_eval)
from .sylvester import sylvester_resultant, sylvester_root_eigvectors

__all__ = [
    "SolveOptions",
    "RootRecord",
    "RootReport",
    "RecoveryError",
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


class RecoveryError(RuntimeError):
    """Eigenvector structure did not determine the free components."""


@dataclass(frozen=True)
class SolveOptions:
    """Tuning knobs for solve_system; defaults match the shipped tests."""

    hidden_index: int = None
    taus: tuple = None            # override the Cayley degree bounds
    domain_margin: float = 1e-6   # inflation when filtering eigenvalues
    tol_accept: float = 1e-7      # residual / coefficient-scale threshold
    polish: bool = True
    max_newton: int = 20
    newton_tol: float = 1e-14
    dedupe_tol: float = 1e-8


@dataclass(frozen=True)
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
    recovery: str                 # "ratio", "rank1" or "grid"


@dataclass(frozen=True)
class RootReport:
    """Everything solve_system learned about one system."""

    method: str
    hidden_index: int
    resultant_size: int
    n_eigenvalues: int            # finite eigenvalues of the resultant
    n_infinite: int
    n_outside_domain: int
    n_recovery_failed: int        # in-domain eigenvalues with no candidate
    roots: tuple                  # RootRecord, sorted by hidden component

    @property
    def accepted(self):
        return tuple(r for r in self.roots if not r.spurious)


# ----------------------------------------------------------------------
# Newton polishing
# ----------------------------------------------------------------------

def newton_polish(sys, x0, max_iter=20, tol=1e-14):
    """Newton iteration on the full system from x0.

    Each iteration makes one eval_with_jacobian call, which gives the
    values and the Jacobian together.  Returns (x, iterations,
    converged); convergence means the last step fell below
    tol * (1 + ||x||_inf).  A singular Jacobian stops the iteration and
    reports non-convergence at the current point.
    """
    x = np.atleast_1d(np.array(x0, dtype=complex))[None]
    F, J = eval_with_jacobian(sys, x)
    x, iters, converged = _newton(sys, x, F, J, max_iter, tol)
    return x[0], int(iters[0]), bool(converged[0])


def _newton(sys, x, F, J, max_iter, tol):
    """newton_polish from every row of x at once, with F and J already
    evaluated at x.

    Each round takes the steps of all rows still iterating from one
    stacked solve and evaluates those rows with one eval_with_jacobian
    call.  Every row stops by newton_polish's rule on its own.
    Returns (x, iterations, converged), one entry per row.
    """
    x = x.copy()
    iters = np.full(len(x), max_iter)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    for it in range(max_iter):
        if it:
            F, J = eval_with_jacobian(sys, x[active])
        step, solved = _newton_steps(J, F)
        iters[active[~solved]] = it
        active, step = active[solved], step[solved]
        x[active] -= step
        done = (np.max(np.abs(step), axis=1)
                <= tol * (1.0 + np.max(np.abs(x[active]), axis=1)))
        iters[active[done]] = it + 1
        converged[active[done]] = True
        active = active[~done]
        if not len(active):
            break
    return x, iters, converged


def _newton_steps(J, F):
    """Newton steps J^-1 F for stacked J and F, and which rows got one.

    A stacked solve raises when any one Jacobian is singular; only then
    is each row solved alone, so that a singular row fails by itself.
    """
    try:
        step = np.linalg.solve(J, F[..., None])[..., 0]
        return step, np.ones(len(F), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(F)
    solved = np.ones(len(F), dtype=bool)
    for k in range(len(F)):
        try:
            step[k] = np.linalg.solve(J[k], F[k])
        except np.linalg.LinAlgError:
            solved[k] = False
    return step, solved


# ----------------------------------------------------------------------
# Component recovery from eigenvectors
# ----------------------------------------------------------------------

def _component_from_vector(u, basis):
    """Least-squares x such that u is proportional to (phi_0(x), ...).

    Solves sum_i |alpha_i u_i|^2 x = sum_i conj(alpha_i u_i) *
    (u_{i+1} - beta_i u_i - sum_j gamma_{i,j} u_{j-1}); the unknown
    overall scale of u cancels.
    """
    u = np.asarray(u, dtype=complex)
    e = len(u)
    if e < 2:
        raise RecoveryError("vector too short to carry a component")
    tab = basis.table(e - 2)
    pred = u[1:] - tab.beta[:e - 1] * u[:-1]
    for i in range(e - 1):
        for j, g in tab.rows[i]:
            pred[i] -= g * u[j - 1]
    t = tab.alpha[:e - 1] * u[:-1]
    den = np.vdot(t, t).real
    if den == 0.0:
        raise RecoveryError("eigenvector has no usable basis slots")
    return np.vdot(t, pred) / den


def recover_components(resultant, vec, basis, method):
    """Free components of the root encoded in a right eigenvector.

    Cayley eigenvectors factor as an outer product of basis columns, one
    per free variable; Sylvester eigenvectors are a single basis column.
    Per axis the ratio of slots 1 and 0 at the dominant entry is tried
    first, then a rank-one fit of the axis fiber.

    Returns (components, how) where how is "ratio" or "rank1" (rank1
    wins the label when any axis needed it).

    Raises RecoveryError when some axis carries no information.
    """
    if method == "sylvester":
        v = np.asarray(vec)
        top = np.max(np.abs(v))
        if top == 0.0:
            raise RecoveryError("zero eigenvector")
        if abs(v[0]) > 1e-8 * top:
            r = v[1] / v[0]
            return np.array([(r - basis.beta(0)) / basis.alpha(0)]), "ratio"
        return np.array([_component_from_vector(v, basis)]), "rank1"
    ext = resultant.col_extents
    V = np.asarray(vec).reshape(ext)
    ref = np.unravel_index(np.argmax(np.abs(V)), ext)
    top = abs(V[ref])
    if top == 0.0:
        raise RecoveryError("zero eigenvector")
    out = []
    how = "ratio"
    for k0, e in enumerate(ext):
        if e == 1:
            raise RecoveryError(f"axis {k0} has extent one; the "
                                "eigenvector carries no component")
        idx0, idx1 = list(ref), list(ref)
        idx0[k0], idx1[k0] = 0, 1
        denom = V[tuple(idx0)]
        if abs(denom) > 1e-8 * top:
            r = V[tuple(idx1)] / denom
            out.append((r - basis.beta(0)) / basis.alpha(0))
            continue
        fiber = np.moveaxis(V, k0, 0).reshape(e, -1)
        u = np.linalg.svd(fiber)[0][:, 0]
        out.append(_component_from_vector(u, basis))
        how = "rank1"
    return np.array(out), how


def _grid_newton_candidates(sys, lam, hidden_index, opts):
    """Newton from a coarse grid of free-variable starts at fixed lam.

    Keeps converged roots whose hidden component stayed at the
    eigenvalue, so each candidate remains attached to the eigenvalue
    that produced it.  All starts iterate together.
    """
    d = sys.dim
    nodes = np.asarray(sys.domain.nodes(3), dtype=complex)
    grid = np.array(list(itertools.product(nodes, repeat=d - 1)),
                    dtype=complex).reshape(len(nodes) ** (d - 1), d - 1)
    x0 = np.insert(grid, hidden_index, lam, axis=1)
    F, J = eval_with_jacobian(sys, x0)
    x, _, ok = _newton(sys, x0, F, J, opts.max_newton, opts.newton_tol)
    ok &= np.abs(x[:, hidden_index] - lam) <= 1e-6 * (1.0 + abs(lam))
    return list(x[ok])


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def _build_resultant(hv, method, taus):
    if method == "cayley":
        return cayley_resultant(hv, taus)
    if method == "sylvester":
        return sylvester_resultant(hv)
    raise ValueError(f"unknown method {method!r}")


def _coeff_scales(sys):
    return np.array([np.sum(np.abs(p.coeffs)) for p in sys.polys])


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
    """
    opts = options or SolveOptions()
    d = sys.dim
    hidden = opts.hidden_index if opts.hidden_index is not None else d - 1
    hv = hide_variable(sys, hidden)
    res = _build_resultant(hv, method, opts.taus)
    P = res.matrix_poly
    lams, n_inf = polyeig(P)
    kept = lams[np.array([sys.domain.contains(lam, opts.domain_margin)
                          for lam in lams], dtype=bool)]
    right, _, _, kappas = eigvecs_and_conditions(P, kept)
    n_failed = 0
    produced = []   # (start point, index into kept, recovery label)
    for k, lam in enumerate(kept):
        try:
            comps, how = recover_components(res, right[k], sys.basis,
                                            method)
        except RecoveryError:
            found = _grid_newton_candidates(sys, lam, hidden, opts)
            n_failed += not found
            produced += [(x0, k, "grid") for x0 in found]
            continue
        produced.append((np.insert(comps, hidden, lam), k, how))
    candidates = []
    if produced:
        x0 = np.array([start for start, _, _ in produced])
        F, J = eval_with_jacobian(sys, x0)
        pre = np.max(np.abs(F), axis=1)
        if opts.polish:
            x, iters, _ = _newton(sys, x0, F, J, opts.max_newton,
                                  opts.newton_tol)
            F, J = eval_with_jacobian(sys, x)
        else:
            x, iters = x0, np.zeros(len(x0), dtype=int)
        resid = np.abs(F)
        spurious = np.any(resid > opts.tol_accept * _coeff_scales(sys),
                          axis=1)
        rcs = _root_conditions(J)
        candidates = [RootRecord(
            x=x[i], hidden_value=complex(kept[k]),
            residuals=resid[i], max_residual=float(resid[i].max()),
            pre_polish_residual=float(pre[i]), spurious=bool(spurious[i]),
            eig_condition=float(kappas[k]), root_condition=float(rcs[i]),
            newton_iters=int(iters[i]), recovery=how)
            for i, (_, k, how) in enumerate(produced)]
    roots = _dedupe(candidates, opts.dedupe_tol)
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
    come from one broadcast; only the greedy pass is a loop.
    """
    order = sorted(records, key=lambda r: r.max_residual)
    if not order:
        return []
    xs = np.array([r.x for r in order])
    gap = np.max(np.abs(xs[:, None, :] - xs[None, :, :]), axis=-1)
    close = gap <= tol * (1.0 + np.max(np.abs(xs), axis=1))
    kept = []
    for i in range(len(order)):
        if not close[i, kept].any():
            kept.append(i)
    return [order[i] for i in kept]


# ----------------------------------------------------------------------
# Conditioning probes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionRecord:
    """Eigenvalue and root sensitivities measured at a known root."""

    method: str
    root: np.ndarray
    eig_condition: float
    rayleigh: complex             # w^T R'(hidden) v, structured vectors
    jacobian_det: complex
    root_condition: float


def condition_at_root(sys, root, method="cayley", hidden_index=None,
                      taus=None):
    """Measure conditioning with the closed-form eigenvectors at a root.

    The eigenvalue condition number uses the structured (unnormalized)
    left/right vectors of the resultant; the Rayleigh-type product they
    produce equals the Jacobian determinant of the system at the root,
    which the record exposes for cross-checking.
    """
    root = np.atleast_1d(np.asarray(root, dtype=complex))
    d = sys.dim
    hidden = hidden_index if hidden_index is not None else d - 1
    hv = hide_variable(sys, hidden)
    if method == "cayley":
        res = cayley_resultant(hv, taus)
        v, w = cayley_root_eigvectors(hv, root, res)
    elif method == "sylvester":
        res = sylvester_resultant(hv)
        v, w = sylvester_root_eigvectors(hv, root, res)
    else:
        raise ValueError(f"unknown method {method!r}")
    z = complex(root[hidden])
    dP = matpoly_deriv_eval(res.matrix_poly, z)
    ray = complex(w @ (dP @ v))
    scale = np.linalg.norm(v) * np.linalg.norm(w)
    kappa = float("inf") if ray == 0 else float(scale / abs(ray))
    J = eval_with_jacobian(sys, root)[1]
    try:
        rc = _inverse_jacobian_norm(J, root)
    except NonSimpleRootError:
        rc = float("inf")
    return ConditionRecord(method=method, root=root, eig_condition=kappa,
                           rayleigh=ray,
                           jacobian_det=complex(np.linalg.det(J)),
                           root_condition=float(rc))


def condition_sweep(d, sigmas, method="cayley", seed=None,
                    basis_name="monomial"):
    """Conditioning of the coupled-rotation family across sigma values.

    Returns [(sigma, ConditionRecord)]; the closed forms are sigma**-d
    for the Cayley route and sqrt(1 + sigma**2) / sigma**2 for the
    bivariate Sylvester route.
    """
    out = []
    for s in sigmas:
        if method == "sylvester":
            sys = family_rotated_quadratic(s, basis_name=basis_name)
        else:
            sys = family_orthogonal_quadratic(d, s, seed=seed,
                                              basis_name=basis_name)
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


def _poly_from_callable(basis, dim, degrees, fn):
    """Interpolate a black-box polynomial of known per-axis degrees."""
    nodes_list = [basis.domain.nodes(n + 1) for n in degrees]
    grids = np.meshgrid(*nodes_list, indexing="ij")
    vals = np.asarray(fn(*grids), dtype=complex)
    coeffs = interpolate_on_nodes(basis, nodes_list, vals)
    return MultiPoly(basis, dim, coeffs)


def family_orthogonal_quadratic(d, sigma, seed=None, Q=None,
                                basis_name="monomial"):
    """p_i = x_i^2 + sigma * sum_j Q_ij x_j with Q orthogonal.

    The origin is a root with Jacobian sigma * Q, so the root condition
    is 1/sigma and the resultant eigenvalue condition grows like
    sigma**-d.  Q defaults to the identity; a seed draws a Haar-random
    orthogonal matrix instead.
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
        degrees = tuple(2 if a == i else 1 for a in range(d))
        if basis.name == "monomial":
            coeffs = np.zeros(tuple(n + 1 for n in degrees), dtype=complex)
            coeffs[tuple(2 if a == i else 0 for a in range(d))] = 1.0
            for j in range(d):
                idx = tuple(1 if a == j else 0 for a in range(d))
                coeffs[idx] += sigma * Q[i, j]
            polys.append(MultiPoly(basis, d, coeffs))
        else:
            def fn(*xs, i=i):
                return xs[i] ** 2 + sigma * sum(
                    Q[i, j] * xs[j] for j in range(d))
            polys.append(_poly_from_callable(basis, d, degrees, fn))
    return PolynomialSystem(polys=tuple(polys))


def family_rotated_quadratic(sigma, c=np.sqrt(0.5), s=np.sqrt(0.5),
                             basis_name="monomial"):
    """Bivariate rotation member: the d = 2 case with an explicit angle.

    Q = [[c, s], [-s, c]]; with c = s = sqrt(1/2) the Sylvester route
    has eigenvalue condition sqrt(1 + sigma^2) / sigma^2 at the origin.
    """
    Q = np.array([[c, s], [-s, c]])
    return family_orthogonal_quadratic(2, sigma, Q=Q, basis_name=basis_name)


def family_linear(d, seed, cond_max=100.0, basis_name="monomial"):
    """Random linear system A x = b with a known root in [-0.9, 0.9]^d.

    A is redrawn until its condition number is at most cond_max.
    Returns (system, root).
    """
    basis = _basis_by_name(basis_name)
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((d, d))
        if np.linalg.cond(A) <= cond_max:
            break
    root = rng.uniform(-0.9, 0.9, size=d)
    b = A @ root
    polys = []
    for i in range(d):
        degrees = (1,) * d
        if basis.name == "monomial":
            coeffs = np.zeros((2,) * d, dtype=complex)
            coeffs[(0,) * d] = -b[i]
            for j in range(d):
                coeffs[tuple(1 if a == j else 0 for a in range(d))] = A[i, j]
            polys.append(MultiPoly(basis, d, coeffs))
        else:
            def fn(*xs, i=i):
                return sum(A[i, j] * xs[j] for j in range(d)) - b[i]
            polys.append(_poly_from_callable(basis, d, degrees, fn))
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
    """
    basis = _basis_by_name(basis_name)
    c = np.sqrt(0.5)
    if basis.name == "monomial":
        c1 = np.zeros((3, 2), dtype=complex)
        c1[2, 0] = 1.0
        c1[1, 0] = u * c
        c1[0, 1] = u * c
        c2 = np.zeros((2, 3), dtype=complex)
        c2[0, 2] = 1.0
        c2[1, 0] = u * c
        c2[0, 1] = u * c
        polys = (MultiPoly(basis, 2, c1), MultiPoly(basis, 2, c2))
    else:
        polys = (
            _poly_from_callable(basis, 2, (2, 1),
                                lambda x, y: x * x + u * c * (x + y)),
            _poly_from_callable(basis, 2, (1, 2),
                                lambda x, y: y * y + u * c * (x + y)))
    return PolynomialSystem(polys=polys)


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
    for _ in range(d):
        shape = (degree + 1,) * d
        coeffs = rng.standard_normal(shape).astype(complex)
        p = MultiPoly(basis, d, coeffs)
        val = mp_eval(p, root)
        coeffs = coeffs.copy()
        coeffs[(0,) * d] -= val  # phi_0 = 1, so this zeroes the root value
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

"""Dense multivariate polynomials in degree-graded bases.

A d-variate polynomial of per-variable degrees (n_1, ..., n_d) is a
dense complex tensor A with extents n_k + 1:

    p(x) = sum A[i_1, ..., i_d] phi_{i_1}(x_1) ... phi_{i_d}(x_d).

The module covers pointwise and tensor-grid evaluation, interpolation
from grid samples, splitting off one variable so the remaining ones see
it as a coefficient parameter (the hidden-variable rewrite used by the
resultant constructions), and the root condition number.

A square system and its Jacobian are evaluated together by
``eval_with_jacobian``, at one point or at a stack of points: the d
coefficient tensors are stacked, and each axis a is contracted with the
two columns [phi(x_a), phi'(x_a)] of every point, so one pass of d
contractions leaves every product of values and first derivatives.
Newton polishing, residuals and root conditioning all go through it;
``jacobian`` is a thin wrapper.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (Domain, DegreeGradedBasis, basis_eval_all,
                    basis_eval_deriv_all, basis_from_json, basis_to_json)

__all__ = [
    "MultiPoly",
    "PolynomialSystem",
    "HiddenVariableForm",
    "NonSimpleRootError",
    "mp_eval",
    "mp_eval_grid",
    "mp_interpolate",
    "interpolate_on_nodes",
    "hide_variable",
    "eval_with_jacobian",
    "jacobian",
    "root_condition",
    "max_solution_bound",
    "system_to_json",
    "system_from_json",
]


class NonSimpleRootError(ArithmeticError):
    """The Jacobian is numerically singular: the root is not simple."""


@dataclass(frozen=True)
class MultiPoly:
    """Dense coefficient tensor of a d-variate polynomial."""

    basis: DegreeGradedBasis
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != self.dim:
            raise ValueError(
                f"coefficient tensor has {c.ndim} axes, expected {self.dim}")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        bad = np.argwhere(~np.isfinite(c))
        if len(bad):
            where = ", ".join(str(tuple(int(i) for i in idx))
                              for idx in bad[:5])
            more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
            raise ValueError(f"non-finite coefficients at index {where}{more}")

    @property
    def degrees(self):
        return tuple(e - 1 for e in self.coeffs.shape)

    @property
    def max_degree(self):
        return max(self.degrees)


@dataclass(frozen=True)
class PolynomialSystem:
    """Square system: d polynomials in d variables, one shared basis."""

    polys: tuple
    domain: Domain = None

    def __post_init__(self):
        polys = tuple(self.polys)
        object.__setattr__(self, "polys", polys)
        if not polys:
            raise ValueError("system needs at least one polynomial")
        d = polys[0].dim
        if len(polys) != d:
            raise ValueError(
                f"square system needs {d} polynomials, got {len(polys)}")
        base = polys[0].basis
        for p in polys[1:]:
            if p.dim != d:
                raise ValueError("all polynomials must share the dimension")
            if p.basis != base:
                raise ValueError("all polynomials must share the basis")
        if self.domain is None:
            object.__setattr__(self, "domain", base.domain)

    @property
    def dim(self):
        return self.polys[0].dim

    @property
    def basis(self):
        return self.polys[0].basis

    @property
    def max_degree(self):
        return max(p.max_degree for p in self.polys)


@dataclass(frozen=True)
class HiddenVariableForm:
    """System rewritten with one variable split off as a parameter.

    tensors[c] is the coefficient tensor of polynomial c with the hidden
    axis moved last, so slice [..., i] holds the free-variable tensor
    multiplying phi_i(hidden).  free_order records which original axes
    remain, in order.
    """

    source: PolynomialSystem
    hidden_index: int
    tensors: tuple = field(repr=False)

    @property
    def dim(self):
        return self.source.dim

    @property
    def basis(self):
        return self.source.basis

    @property
    def domain(self):
        return self.source.domain

    @property
    def free_order(self):
        d = self.dim
        return tuple(a for a in range(d) if a != self.hidden_index)

    @property
    def max_degree(self):
        return self.source.max_degree

    def q_at(self, c, z):
        """Polynomial c with the hidden variable frozen at z.

        Returns a MultiPoly in the d - 1 free variables (ordered as in
        free_order).
        """
        t = self.tensors[c]
        phis = basis_eval_all(self.basis, t.shape[-1] - 1, complex(z))
        return MultiPoly(self.basis, self.dim - 1, t @ phis)

    def qs_at(self, z):
        return [self.q_at(c, z) for c in range(self.dim)]


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def mp_eval(p, x):
    """Evaluate p at a point in C^d by successive tensor contraction."""
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    if x.shape != (p.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.dim},)")
    t = p.coeffs
    for axis in range(p.dim - 1, -1, -1):
        phis = basis_eval_all(p.basis, t.shape[-1] - 1, x[axis])
        t = t @ phis
    return complex(t)


def mp_eval_grid(p, nodes_list):
    """Evaluate p on the tensor grid nodes_list[0] x ... x nodes_list[d-1].

    Returns an array of shape (len(nodes_list[0]), ...); entry
    [j_1, ..., j_d] is p at (nodes_list[0][j_1], ..., nodes_list[d-1][j_d]).
    """
    if len(nodes_list) != p.dim:
        raise ValueError("need one node set per variable")
    t = p.coeffs
    for axis in range(p.dim):
        nodes = np.asarray(nodes_list[axis], dtype=complex)
        vand = basis_eval_all(p.basis, t.shape[axis] - 1, nodes)  # (deg+1, m)
        tm = np.moveaxis(t, axis, -1) @ vand  # coefficient axis -> node axis
        t = np.moveaxis(tm, -1, axis)
    return t


def interpolate_on_nodes(basis, nodes_list, samples):
    """Coefficient tensor from samples on an explicit tensor grid.

    Axis k of samples must match len(nodes_list[k]); the interpolant
    degree along that axis is len(nodes_list[k]) - 1.  Axes beyond
    len(nodes_list) are carried through unchanged, which interpolates a
    stack of functions (for instance matrix entries) at once.
    """
    t = np.asarray(samples, dtype=complex)
    if t.ndim < len(nodes_list):
        raise ValueError("need one node set per sample axis")
    for axis, nodes in enumerate(nodes_list):
        nodes = np.asarray(nodes, dtype=complex)
        if len(nodes) != t.shape[axis]:
            raise ValueError(f"axis {axis}: {t.shape[axis]} samples but "
                             f"{len(nodes)} nodes")
        if len(np.unique(nodes)) != len(nodes):
            raise ValueError("interpolation nodes must be distinct")
        vand = basis_eval_all(basis, len(nodes) - 1, nodes).T  # [j, k]
        tm = np.moveaxis(t, axis, 0)
        sol = np.linalg.solve(vand, tm.reshape(tm.shape[0], -1))
        t = np.moveaxis(sol.reshape(tm.shape), 0, axis)
    return t


def mp_interpolate(basis, dim, degrees, samples):
    """Interpolant through samples taken on the standard tensor grid.

    The grid along axis k consists of degrees[k] + 1 domain nodes
    (Chebyshev points of the second kind for intervals, equispaced
    boundary points for discs), as produced by basis.domain.nodes.
    """
    degrees = tuple(int(n) for n in degrees)
    if len(degrees) != dim:
        raise ValueError("need one degree per variable")
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != tuple(n + 1 for n in degrees):
        raise ValueError(
            f"samples shape {samples.shape} does not match degrees {degrees}")
    nodes_list = [basis.domain.nodes(n + 1) for n in degrees]
    coeffs = interpolate_on_nodes(basis, nodes_list, samples)
    return MultiPoly(basis, dim, coeffs)


# ----------------------------------------------------------------------
# Hidden-variable rewrite
# ----------------------------------------------------------------------

def hide_variable(sys, hidden_index=None):
    """Move one variable into the coefficients of the remaining ones.

    hidden_index is the zero-based axis to hide; the default is the last
    variable.
    """
    d = sys.dim
    if hidden_index is None:
        hidden_index = d - 1
    if not 0 <= hidden_index < d:
        raise ValueError(f"hidden_index must lie in 0..{d - 1}")
    tensors = tuple(np.moveaxis(p.coeffs, hidden_index, -1).copy()
                    for p in sys.polys)
    return HiddenVariableForm(source=sys, hidden_index=hidden_index,
                              tensors=tensors)


# ----------------------------------------------------------------------
# Jacobian and conditioning
# ----------------------------------------------------------------------

def eval_with_jacobian(sys, x):
    """Values F_i = p_i(x) and Jacobian J[i, j] = dp_i/dx_j.

    x is one point, shape (d,), giving F of shape (d,) and J of shape
    (d, d), or a stack of m points, shape (m, d), giving (m, d) values
    and an (m, d, d) Jacobian.  The d coefficient tensors are stacked
    into one (zero-padded where the shapes differ), and axis a is
    contracted with the (2, e_a) matrix [phi(x_a); phi'(x_a)] of each
    point, last axis first, one einsum per axis.  Each
    contraction puts its value/derivative bit in front of the bits
    already made, so after all d the slot with bits (b_1, ..., b_d),
    most significant first, holds the product of derivatives along the
    axes with b_a = 1 and values along the rest: F is slot 0 and column
    j of J is slot 2**(d - 1 - j).
    """
    x = np.asarray(x, dtype=complex)
    d = sys.dim
    single = x.ndim <= 1
    pts = x.reshape(1, -1) if single else x
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"point has shape {x.shape}, expected ({d},) "
                         f"or (m, {d})")
    m = len(pts)
    shapes = [p.coeffs.shape for p in sys.polys]
    ext = tuple(max(col) for col in zip(*shapes))
    t = np.zeros((1, d) + ext, dtype=complex)
    for i, p in enumerate(sys.polys):
        t[(0, i) + tuple(slice(e) for e in shapes[i])] = p.coeffs
    # (m, d, 2, kmax + 1): per point and axis, the rows phi and phi'
    vd = np.stack(basis_eval_deriv_all(sys.basis, max(ext) - 1, pts),
                  axis=-1).transpose(1, 2, 3, 0)
    blk = 1
    for a in reversed(range(d)):
        t = np.einsum("mbe,mrek->mrbk", vd[:, a, :, :ext[a]],
                      t.reshape(len(t), -1, ext[a], blk))
        blk *= 2
    t = t.reshape(m, d, blk)
    F, J = t[:, :, 0], t[:, :, 2 ** np.arange(d - 1, -1, -1)]
    return (F[0], J[0]) if single else (F, J)


def jacobian(sys, x):
    """d x d matrix with entry (i, j) = dp_i/dx_j at x (eval_with_jacobian)."""
    return eval_with_jacobian(sys, x)[1]


def _root_conditions(J):
    """root_condition from a stack of Jacobians J, shape (..., d, d).

    One stacked SVD gives 1 / sigma_min per Jacobian, or inf where
    sigma_min is zero or below 1e3 * eps * ||J||_2.
    """
    svals = np.linalg.svd(J, compute_uv=False)
    smin = svals[..., -1]
    regular = (smin != 0.0) & ~(smin < 1e3 * np.finfo(float).eps
                                * svals[..., 0])
    return np.divide(1.0, smin, out=np.full(smin.shape, np.inf),
                     where=regular)


def _inverse_jacobian_norm(J, x):
    """root_condition from a Jacobian J already evaluated at x."""
    rc = float(_root_conditions(J))
    if rc == np.inf:
        raise NonSimpleRootError(f"Jacobian numerically singular at {x}")
    return rc


def root_condition(sys, x):
    """Sensitivity of a simple root: the 2-norm of the inverse Jacobian.

    Raises NonSimpleRootError when the smallest singular value falls
    below 1e3 * eps * ||J||_2, the working notion of "not simple".
    """
    return _inverse_jacobian_norm(jacobian(sys, x), x)


def max_solution_bound(sys):
    """Cap on the number of isolated solutions: d! * n^d.

    Assumes every polynomial shares the maximal degree n; with mixed
    degrees the maximum over the system is used, which still bounds the
    count from above.
    """
    n = sys.max_degree
    d = sys.dim
    return math.factorial(d) * n ** d


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def system_to_json(sys):
    polys = []
    for p in sys.polys:
        flat = p.coeffs.ravel(order="C")  # last variable fastest
        entry = {"degrees": [int(n) for n in p.degrees],
                 "coeffs_real": [float(v) for v in flat.real]}
        if np.any(flat.imag):
            entry["coeffs_imag"] = [float(v) for v in flat.imag]
        polys.append(entry)
    return {"basis": basis_to_json(sys.basis),
            "dim": sys.dim,
            "polys": polys,
            "domain": sys.domain.to_json()}


def system_from_json(obj):
    if "basis" not in obj or "dim" not in obj or "polys" not in obj:
        raise ValueError("system JSON needs 'basis', 'dim' and 'polys'")
    dim = int(obj["dim"])
    basis = basis_from_json(obj["basis"])
    if "domain" in obj:
        domain = Domain.from_json(obj["domain"])
        if basis.domain != domain:
            basis = DegreeGradedBasis(
                basis.name, domain=domain,
                **({} if basis.name != "custom" else
                   {"alpha": basis._alpha, "beta": basis._beta,
                    "gamma": basis._gamma}))
    else:
        domain = basis.domain
    if not obj["polys"]:
        raise ValueError("system JSON holds no polynomials")
    polys = []
    for entry in obj["polys"]:
        degrees = [int(n) for n in entry["degrees"]]
        if len(degrees) != dim:
            raise ValueError("polynomial degrees do not match dim")
        shape = tuple(n + 1 for n in degrees)
        count = int(np.prod(shape))
        re = np.asarray(entry["coeffs_real"], dtype=float)
        if re.size != count:
            raise ValueError(f"expected {count} coefficients, got {re.size}")
        flat = re.astype(complex)
        if "coeffs_imag" in entry:
            im = np.asarray(entry["coeffs_imag"], dtype=float)
            if im.size != count:
                raise ValueError("coeffs_imag length mismatch")
            flat = flat + 1j * im
        polys.append(MultiPoly(basis, dim, flat.reshape(shape, order="C")))
    return PolynomialSystem(polys=tuple(polys), domain=domain)

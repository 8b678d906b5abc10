"""Dense multivariate polynomials in degree-graded bases.

A d-variate polynomial of per-variable degrees (n_1, ..., n_d) is a
dense tensor A with extents n_k + 1:

    p(x) = sum A[i_1, ..., i_d] phi_{i_1}(x_1) ... phi_{i_d}(x_d).

The library has one dtype rule, applied where data enters (``_demote``):
an array is float64 when no entry has an imaginary part and complex128
otherwise.  Coefficient tensors are stored by it, and so are the points
the solver evaluates at (kept eigenvalues, Newton iterates, the root of
a conditioning probe).  Everything downstream takes its dtype from numpy
promotion, so a real system on an interval is solved in real arithmetic
from construction to Newton, and complex coefficients, disc domains or
complex points run the same code in complex arithmetic.

The module covers pointwise evaluation, interpolation from samples on
the standard tensor grid (``mp_interpolate``), splitting off one
variable so the remaining ones see it as a coefficient parameter (the
hidden-variable rewrite used by the resultant constructions), and the
root condition number.

Every multi-axis contraction of the construction layer (interpolation,
Cayley and Sylvester sampling, the example families' change of basis)
is one kernel, ``_contract_leading``: one matrix per leading axis of a
tensor (the mode-k product), one reshape and one matmul per axis.

A square system and its Jacobian are evaluated together by
``eval_with_jacobian``, at one point or at a stack of points: the d
coefficient tensors are stacked, one fused value/derivative recurrence
runs over every component of every point, and each axis a is contracted
with the two rows [phi(x_a); phi'(x_a)] of that table, so one pass of d
contractions leaves every product of values and first derivatives.  A
caller that evaluates one system at several point sets (a solve, a
Newton polish) stacks it once (``_stack_system``) and passes the stack;
the conditioning probe takes the table and the Jacobian together
(``_jacobian_and_table``), since it reads the table at the root too.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import (DegreeGradedBasis, _brief, _is_number, _reject_non_finite,
                    _value_derivative_table, basis_eval_all, basis_from_json,
                    basis_to_json)

__all__ = [
    "MultiPoly",
    "PolynomialSystem",
    "HiddenVariableForm",
    "mp_eval",
    "mp_interpolate",
    "hide_variable",
    "eval_with_jacobian",
    "system_to_json",
    "system_from_json",
]


def _demote(a):
    """a as a float64 array when no entry has an imaginary part, as a
    complex128 array otherwise: the library's one dtype rule.  A float64
    array comes back as it is."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return a.astype(float, copy=False)
    if np.any(a.imag):
        return a.astype(complex, copy=False)
    return np.ascontiguousarray(a.real, dtype=float)


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Dense coefficient tensor of a d-variate polynomial, stored by
    _demote's rule: float64 when no entry has an imaginary part."""

    basis: DegreeGradedBasis
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = _demote(self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != self.dim:
            raise ValueError(
                f"coefficient tensor has {c.ndim} axes, expected {self.dim}")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if 0 in c.shape:
            raise ValueError(f"coefficient tensor of shape {c.shape} has "
                             "an axis of extent 0")
        _reject_non_finite(c)

    @property
    def degrees(self):
        return tuple(e - 1 for e in self.coeffs.shape)

    @property
    def max_degree(self):
        return max(self.degrees)


@dataclass(frozen=True, eq=False)
class PolynomialSystem:
    """Square system: d polynomials in d variables, one basis and domain."""

    polys: tuple

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

    @property
    def dim(self):
        return self.polys[0].dim

    @property
    def basis(self):
        return self.polys[0].basis

    @property
    def domain(self):
        return self.basis.domain

    @property
    def max_degree(self):
        return max(p.max_degree for p in self.polys)


@dataclass(frozen=True, eq=False)
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
        phis = basis_eval_all(self.basis, t.shape[-1] - 1, z)
        return MultiPoly(self.basis, self.dim - 1, t @ phis)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def mp_eval(p, x):
    """Evaluate p at a point in C^d by successive tensor contraction, in
    the result type of p and x; the value is returned as a complex."""
    x = np.atleast_1d(np.asarray(x))
    if x.shape != (p.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.dim},)")
    t = p.coeffs
    for axis in range(p.dim - 1, -1, -1):
        phis = basis_eval_all(p.basis, t.shape[-1] - 1, x[axis])
        t = t @ phis
    return complex(t)


def _contract_leading(t, mats):
    """Contract the leading axes of t with one matrix each.

    mats[k] has shape (t.shape[k], m_k).  Each axis is one reshape and
    one matmul: the leading axis is flattened against the rest and its
    new axis goes last, so after len(mats) steps the axes of t that were
    not contracted (the carried ones) come first, followed by m_0, ...,
    m_{k-1} in order.
    """
    for m in mats:
        rest = t.shape[1:]
        t = (t.reshape(t.shape[0], -1).T @ m).reshape(rest + m.shape[1:])
    return t


def _vandermonde_inverse(basis, nodes):
    """inv(V^T) for the square V = basis_eval_all(basis, len(nodes) - 1,
    nodes), real for real nodes and a real recurrence; raises ValueError
    when the nodes repeat."""
    nodes = np.asarray(nodes)
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    return np.linalg.inv(basis_eval_all(basis, len(nodes) - 1, nodes).T)


def mp_interpolate(basis, dim, degrees, samples):
    """Interpolant through samples taken on the standard tensor grid.

    The grid along axis k consists of degrees[k] + 1 domain nodes
    (Chebyshev points of the second kind for intervals, equispaced
    boundary points for discs), as produced by basis.domain.nodes.  The
    per-axis Vandermonde inverses are computed on every call; the
    constructions read theirs from their plans.
    """
    degrees = tuple(int(n) for n in degrees)
    if len(degrees) != dim:
        raise ValueError("need one degree per variable")
    samples = np.asarray(samples)
    if samples.shape != tuple(n + 1 for n in degrees):
        raise ValueError(
            f"samples shape {samples.shape} does not match degrees {degrees}")
    coeffs = _contract_leading(samples, [
        _vandermonde_inverse(basis, basis.domain.nodes(n + 1)).T
        for n in degrees])
    return MultiPoly(basis, dim, coeffs)


# ----------------------------------------------------------------------
# Hidden-variable rewrite
# ----------------------------------------------------------------------

def hide_variable(sys, hidden_index=None):
    """Move one variable into the coefficients of the remaining ones.

    hidden_index is the zero-based axis to hide; the default is the last
    variable.  The tensors are copies with the hidden axis moved last,
    or the polynomials' own coefficient arrays when it is last already.
    """
    d = sys.dim
    if hidden_index is None:
        hidden_index = d - 1
    if not 0 <= hidden_index < d:
        raise ValueError(f"hidden_index must lie in 0..{d - 1}")
    tensors = tuple(p.coeffs if hidden_index == d - 1
                    else np.moveaxis(p.coeffs, hidden_index, -1).copy()
                    for p in sys.polys)
    return HiddenVariableForm(source=sys, hidden_index=hidden_index,
                              tensors=tensors)


# ----------------------------------------------------------------------
# Jacobian and conditioning
# ----------------------------------------------------------------------

def _stacked(tensors):
    """The tensors stacked along a new first axis, each zero-padded to
    the per-axis maximum extent, in their result type."""
    ext = tuple(max(col) for col in zip(*(t.shape for t in tensors)))
    out = np.zeros((len(tensors),) + ext, dtype=np.result_type(*tensors))
    for i, t in enumerate(tensors):
        out[(i,) + tuple(slice(e) for e in t.shape)] = t
    return out


@dataclass(frozen=True, eq=False)
class _StackedSystem:
    """A square system's d coefficient tensors stacked into one
    (_stacked), shape (d, e_1, ..., e_d).  A caller that evaluates one
    system at several point sets stacks it once (_stack_system) and
    passes the stack to eval_with_jacobian in place of the system."""

    basis: DegreeGradedBasis
    coeffs: np.ndarray

    @property
    def dim(self):
        return len(self.coeffs)


def _stack_system(sys):
    """sys as a _StackedSystem; a stack comes back as it is."""
    if isinstance(sys, _StackedSystem):
        return sys
    return _StackedSystem(sys.basis, _stacked([p.coeffs for p in sys.polys]))


def eval_with_jacobian(sys, x):
    """Values F_i = p_i(x) and Jacobian J[i, j] = dp_i/dx_j.

    sys is a PolynomialSystem or its _stack_system.  x is one point,
    shape (d,), giving F of shape (d,) and J of shape (d, d), or a stack
    of m points, shape (m, d), giving (m, d) values and an (m, d, d)
    Jacobian.  One value/derivative recurrence over every component of
    every point gives the table, and _jacobian_and_table contracts the
    stacked tensors with it.  F and J are in the result type of x, the
    coefficients and the recurrence.
    """
    stack = _stack_system(sys)
    x = np.asarray(x)
    d = stack.dim
    single = x.ndim <= 1
    pts = x.reshape(1, -1) if single else x
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"point has shape {x.shape}, expected ({d},) "
                         f"or (m, {d})")
    F, J = _jacobian_and_table(stack, pts, 0)[1:]
    return (F[0], J[0]) if single else (F, J)


def _jacobian_and_table(stack, pts, kmax):
    """(table, F, J) at the (m, d) points pts of the _StackedSystem stack.

    table is _value_derivative_table at pts up to degree kmax, or up to
    the stack's largest extent minus one when that is higher, shape
    (K + 1, 2, m, d).  Axis a of the stacked tensors is contracted with
    its (m, 2, e_a) view [phi(x_a); phi'(x_a)], last axis first, one
    einsum per axis, without copying the table.  Each contraction puts
    its value/derivative bit in front of the bits already made, so
    after all d the slot with bits (b_1, ..., b_d), most significant
    first, holds the product of derivatives along the axes with b_a = 1
    and values along the rest: F is slot 0 and column j of J is slot
    2**(d - 1 - j).  F has shape (m, d) and J (m, d, d).
    """
    m, d = pts.shape
    t = stack.coeffs[None]
    ext = t.shape[2:]
    table = _value_derivative_table(stack.basis, max(kmax, max(ext) - 1),
                                    pts)
    vd = table.transpose(2, 3, 1, 0)  # (m, d, 2, K + 1)
    blk = 1
    for a in reversed(range(d)):
        t = np.einsum("mbe,mrek->mrbk", vd[:, a, :, :ext[a]],
                      t.reshape(len(t), -1, ext[a], blk))
        blk *= 2
    t = t.reshape(m, d, blk)
    return table, t[:, :, 0], t[:, :, 2 ** np.arange(d - 1, -1, -1)]


def _root_conditions(J):
    """Root condition numbers ||J^-1||_2 from a stack of Jacobians J,
    shape (..., d, d).

    One stacked SVD gives 1 / sigma_min per Jacobian, or inf where
    sigma_min is zero or below 1e3 * eps * ||J||_2, the working notion
    of a root that is not simple.
    """
    svals = np.linalg.svd(J, compute_uv=False)
    smin = svals[..., -1]
    regular = (smin != 0.0) & ~(smin < 1e3 * np.finfo(float).eps
                                * svals[..., 0])
    return np.divide(1.0, smin, out=np.full(smin.shape, np.inf),
                     where=regular)


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


def _is_whole(n):
    """Whether n is a whole JSON number; JSON's true and 1e400 are not."""
    return _is_number(n) and (isinstance(n, int) or n.is_integer())


def _reals_from_json(v, what):
    """A JSON list of numbers as a float array; raises ValueError naming
    what and the first entry that is not a number."""
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a list of numbers, got {v!r}")
    for i, x in enumerate(v):
        if not _is_number(x):
            raise ValueError(f"{what}[{i}] must be a number, got {_brief(x)}")
    return np.asarray(v, dtype=float)


def system_from_json(obj):
    if not (isinstance(obj, dict) and {"basis", "dim", "polys"} <= obj.keys()):
        raise ValueError("system JSON needs 'basis', 'dim' and 'polys'")
    if not _is_whole(obj["dim"]):
        raise ValueError(f"dim must be an integer, got {_brief(obj['dim'])}")
    dim = int(obj["dim"])
    spec = obj["basis"]
    # a top-level domain overrides the basis's own (a name or an object)
    if "domain" in obj and isinstance(spec, (str, dict)):
        spec = dict({"name": spec} if isinstance(spec, str) else spec,
                    domain=obj["domain"])
    basis = basis_from_json(spec)
    if not isinstance(obj["polys"], list):
        raise ValueError(f"polys must be a list, got {obj['polys']!r}")
    if not obj["polys"]:
        raise ValueError("system JSON holds no polynomials")
    polys = []
    for i, entry in enumerate(obj["polys"]):
        if not (isinstance(entry, dict)
                and {"degrees", "coeffs_real"} <= entry.keys()):
            raise ValueError(f"polys[{i}] must be an object with 'degrees' "
                             "and 'coeffs_real'")
        degrees = entry["degrees"]
        if not (isinstance(degrees, list) and all(map(_is_whole, degrees))):
            raise ValueError(
                f"degrees must be integers, got {_brief(degrees)}")
        degrees = [int(n) for n in degrees]
        if len(degrees) != dim:
            raise ValueError("polynomial degrees do not match dim")
        if min(degrees) < 0:
            raise ValueError(f"negative degree in degrees {degrees}")
        shape = tuple(n + 1 for n in degrees)
        count = int(np.prod(shape))
        flat = _reals_from_json(entry["coeffs_real"],
                                f"polys[{i}].coeffs_real")
        if flat.size != count:
            raise ValueError(f"expected {count} coefficients, got {flat.size}")
        if "coeffs_imag" in entry:
            im = _reals_from_json(entry["coeffs_imag"],
                                  f"polys[{i}].coeffs_imag")
            if im.size != count:
                raise ValueError("coeffs_imag length mismatch")
            flat = flat + 1j * im
        polys.append(MultiPoly(basis, dim, flat.reshape(shape, order="C")))
    return PolynomialSystem(polys=tuple(polys))

"""Cayley (Dixon/Bezout style) resultant.

Given a square system with one variable hidden, form the d x d matrix
whose row r holds the polynomials evaluated at the mixed argument
(t_1, ..., t_{r-1}, s_r, ..., s_{d-1}); its determinant divided by
prod_k (s_k - t_k) is a polynomial in the 2d - 2 auxiliary variables
with coefficients depending on the hidden variable.  Expanding it in
tensor-product form gives a coefficient tensor; flattening the s-indexed
axes into rows and the t-indexed axes into columns (plain C-order on
both groups) yields a matrix polynomial in the hidden variable, the
Cayley resultant, whose eigenvalues contain every hidden component of
the system's roots.

Degree bounds: with maximal degree n, the function has degree at most
k n - 1 in s_k and in t_{d-k}.  For systems of total degree one the
function is constant in every auxiliary variable, so the bounds drop to
zero; this structural fact keeps linear systems away from identically
singular unfoldings.

Coefficients are recovered by sampling on one tensor grid whose axes
are the hidden variable, the s variables and the t variables, then
applying the inverse of one generalized Vandermonde matrix per axis.
The grid and every operator on it depend on the shape alone, so they
come from one cached plan per shape (_plan).
Sampling is one contraction pass through multipoly._contract_leading:
the d coefficient tensors are stacked and contracted with one
basis-value matrix per node set, hidden axis first, which gives each
row of the mixed matrix at once.  Every entry keeps only the grid axes
it depends on and broadcasts over the rest, so the determinant is a
cofactor expansion over column subsets on those broadcast entries,
with no d x d block per grid point.  The s-grids and t-grids are drawn
from interleaved point families chosen so that s_k never collides with
t_k, which keeps the defining quotient evaluable everywhere on the
grid; the value on the diagonal s = t = x is w^T R(z) v for the
structured vectors v, w at x.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .basis import PLAN_CACHE_SIZE, basis_eval_all
from .matpoly import (MatrixPolynomial, _check_null_vectors, _checked_root,
                      matpoly_eval, matpoly_to_json)
from .multipoly import _contract_leading, _stacked, _vandermonde_inverse

__all__ = [
    "CayleyResultant",
    "default_taus",
    "cayley_resultant",
    "cayley_root_eigvectors",
    "cayley_resultant_to_json",
]


@dataclass(frozen=True, eq=False)
class CayleyResultant:
    """Matrix polynomial in the hidden variable plus the index bookkeeping
    that maps tensor entries to matrix entries."""

    matrix_poly: MatrixPolynomial
    taus: tuple

    @property
    def row_extents(self):
        return tuple(t + 1 for t in self.taus)

    @property
    def col_extents(self):
        return tuple(t + 1 for t in reversed(self.taus))

    @property
    def row_strides(self):
        return _c_strides(self.row_extents)

    @property
    def col_strides(self):
        return _c_strides(self.col_extents)

    @property
    def unfolding_map(self):
        return {"row_extents": list(self.row_extents),
                "col_extents": list(self.col_extents),
                "row_strides": list(self.row_strides),
                "col_strides": list(self.col_strides)}


def _c_strides(extents):
    strides = []
    acc = 1
    for e in reversed(extents):
        strides.append(acc)
        acc *= e
    return tuple(reversed(strides))


# ----------------------------------------------------------------------
# Degree bounds and sampling grids
# ----------------------------------------------------------------------

def _is_total_degree_one(hv):
    # Affine in the free variables; the hidden axis (last) is excluded
    # because hidden-variable degree never enters the s, t degrees.  A
    # nonzero slab of degree >= 2 in one free variable decides before
    # any index mask is built.
    for t in hv.tensors:
        for m in range(hv.dim - 1):
            if np.any(t[(slice(None),) * m + (slice(2, None),)]):
                return False
    for t in hv.tensors:
        weight = np.indices(t.shape[:-1]).sum(axis=0)
        if np.any(t[weight >= 2] != 0):
            return False
    return True


def default_taus(hv):
    """Worst-case bounds tau_k = k n - 1, collapsed to zero for systems
    affine in the free variables (whose resultant function is constant
    in s and t, by the same cancellation that proves Cramer's rule)."""
    d = hv.dim
    if d < 2:
        raise ValueError("the construction needs d >= 2")
    n = hv.max_degree
    if n < 1:
        raise ValueError("system of constants has no roots to eliminate")
    if _is_total_degree_one(hv):
        return (0,) * (d - 1)
    return tuple(k * n - 1 for k in range(1, d))


def _axis_point_sets(domain, taus):
    """Disjoint per-axis node families for the s and t grids.

    s_k gets tau_k + 1 Chebyshev points of the second kind, t_k gets
    tau_{d-k} + 1 points of the first kind; if the families touch, the
    first-kind angles are rotated until they clear.  Disc domains use
    boundary points with a half-step phase offset instead.  Returns two
    lists of arrays, real on an interval and complex on a disc, so the
    plan's node operators and the sampled grid are real for a real
    system on an interval.
    """
    d = len(taus) + 1
    cen, rad = domain.center, domain.radius
    s_sets, t_sets = [], []
    for k0 in range(d - 1):
        a = taus[k0] + 1
        b = taus[d - 2 - k0] + 1
        if domain.kind == "interval":
            s = (cen + rad * np.cos(np.arange(a) * np.pi / (a - 1))
                 if a > 1 else np.array([domain.hi]))
            shift = 0.0
            while True:
                ang = (2 * np.arange(b) + 1) * np.pi / (2 * b) + shift
                t = cen + rad * np.cos(ang)
                gap = np.min(np.abs(s[:, None] - t[None, :]))
                if gap > 1e-8 * max(rad, 1):
                    break
                shift += np.pi / (7 * b)  # rotate until families separate
        else:
            s = cen + rad * np.exp(2j * np.pi * np.arange(a) / a)
            t = cen + rad * np.exp(2j * np.pi * (np.arange(b) + 0.5) / b)
            if np.min(np.abs(s[:, None] - t[None, :])) <= 1e-10 * rad:
                t = cen + rad * np.exp(
                    2j * np.pi * (np.arange(b) + 1.0 / 3.0) / b)
        s_sets.append(s)
        t_sets.append(t)
    return s_sets, t_sets


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(basis, stacked_extents, taus):
    """Shape-only operators of cayley_resultant as read-only arrays:
    (s_sets, t_sets, phis, inverses).  Per grid axis (d n + 1 hidden
    nodes, then the s and the t node sets) phis holds the basis values
    up to the stacked extent of the variable sampled there, and
    inverses the transposed inverse Vandermonde matrix.  Every node
    set lies in basis.domain."""
    ext = stacked_extents  # of _stacked(hv.tensors), hidden axis last
    s_sets, t_sets = _axis_point_sets(basis.domain, taus)
    grid = [basis.domain.nodes(len(ext) * max(max(ext) - 1, 1) + 1),
            *s_sets, *t_sets]
    phis = [basis_eval_all(basis, e - 1, x)
            for e, x in zip((ext[-1], *ext[:-1], *ext[:-1]), grid)]
    inverses = [_vandermonde_inverse(basis, x).T for x in grid]
    for x in s_sets + t_sets + phis + inverses:
        x.flags.writeable = False
    return tuple(s_sets), tuple(t_sets), tuple(phis), tuple(inverses)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------

def _cofactor_det(rows):
    """Determinant of a d x d matrix whose entry (r, c) is rows[r][c].

    The entries are arrays that broadcast against each other, so one
    call gives the determinant at every point of their common shape.
    Laplace expansion along the top row, bottom-up: the minor of the
    last d - r rows on each column subset S is formed once from the
    minors one row lower, d * 2**(d - 1) broadcast products in all.
    """
    d = len(rows)
    minors = {(c,): rows[-1][c] for c in range(d)}
    for r in range(d - 2, -1, -1):
        upper = {}
        for cols in itertools.combinations(range(d), d - r):
            acc = rows[r][cols[0]] * minors[cols[1:]]
            for pos in range(1, len(cols)):
                term = rows[r][cols[pos]] * minors[cols[:pos] + cols[pos + 1:]]
                acc = acc - term if pos % 2 else acc + term
            upper[cols] = acc
        minors = upper
    return minors[tuple(range(d))]


def _grid_values(T, s_sets, t_sets, phis):
    """Function values on the tensor grid: hidden axis, s axes, t axes.

    T stacks the d hidden-axis-last tensors, (d, e_1, ..., e_{d-1},
    e_hidden).  It is transposed once to (hidden, free variables,
    polynomial) and contracted with one basis-value matrix per grid axis
    (phis, in grid axis order, as _plan gives them): the hidden axis
    first, then, for each Cayley row, every free variable with the s or
    t nodes that row reads, in one _contract_leading call on a
    transposed view.  Each row's d entries come out together, shaped to
    broadcast over the grid with extent one on the axes the row does not
    read, and _cofactor_det combines them.
    """
    d = len(T)
    nfree = d - 1
    # (e_1, ..., e_{d-1}, d, hidden node)
    H = _contract_leading(T.transpose(d, *range(1, d), 0), phis[:1])
    vs, vt = phis[1:d], phis[d:]
    rows = []
    for r in range(d):
        # row r reads t_m for m < r and s_m otherwise; contracting the s
        # variables before the t ones leaves the node axes in grid order
        X = _contract_leading(
            H.transpose(*range(r, nfree), *range(r), nfree, nfree + 1),
            vs[r:] + vt[:r])
        # extent one on the s axes m < r and the t axes m >= r
        rows.append(np.expand_dims(X, (*range(2, 2 + r),
                                       *range(2 + nfree + r, 2 + 2 * nfree))))
    F = _cofactor_det(rows)
    for m in range(nfree):
        # s_m - t_m on grid axes 1 + m and 1 + nfree + m; not in place,
        # so that complex nodes promote real samples
        F = F / (s_sets[m].reshape((-1,) + (1,) * (2 * nfree - 1 - m))
                 - t_sets[m].reshape((-1,) + (1,) * (nfree - 1 - m)))
    return F


# ----------------------------------------------------------------------
# Resultant matrix
# ----------------------------------------------------------------------

def cayley_resultant(hv, taus=None):
    """Matrix polynomial in the hidden variable from entrywise interpolation.

    The function is sampled at d n + 1 domain nodes of the hidden
    variable together with the s and t grids and interpolated along all
    of its axes at once, with the operators of the plan for this shape;
    the recovered coefficient tensor is flattened row-group/column-group
    in C order, one matrix per hidden-variable basis function.
    """
    taus = default_taus(hv) if taus is None else tuple(int(t) for t in taus)
    if len(taus) != hv.dim - 1 or any(t < 0 for t in taus):
        raise ValueError(f"need {hv.dim - 1} nonnegative degree bounds")
    T = _stacked(hv.tensors)
    s_sets, t_sets, phis, inverses = _plan(hv.basis, T.shape[1:], taus)
    coeffs = _contract_leading(_grid_values(T, s_sets, t_sets, phis),
                               inverses)
    size = int(np.prod([t + 1 for t in taus]))
    return CayleyResultant(
        matrix_poly=MatrixPolynomial(
            hv.basis, coeffs.reshape(len(coeffs), size, size)),
        taus=taus)


# ----------------------------------------------------------------------
# Structured eigenvectors
# ----------------------------------------------------------------------

def cayley_root_eigvectors(hv, root, resultant, check=True):
    """Right/left eigenvectors of the resultant at a root of the system.

    The right vector flattens the tensor with entries
    prod_k phi_{j_k}(x_k) over the column index group; the left vector
    does the same over the row group.  Both are returned unnormalized.

    Raises ValueError when a root component is NaN or infinite, and
    StructureError when either residual exceeds 1e-7 times the matrix
    norm (floored by the coefficient scale), which would mean the
    construction and the closed-form eigenvector disagree.
    """
    root = _checked_root(root, hv.dim)
    phis = basis_eval_all(hv.basis, max(resultant.row_extents) - 1, root)
    v, w = _root_vectors(hv, resultant, root, phis)
    if check:
        P, z = resultant.matrix_poly, root[hv.hidden_index]
        _check_null_vectors(P, z, matpoly_eval(P, z), v, w)
    return v, w


def _root_vectors(hv, resultant, root, phis):
    """(v, w) of cayley_root_eigvectors from phis, the basis values at
    every component of root, shape (K + 1, d) with K + 1 at least the
    largest row extent: column a of phis, cut to each extent, is the
    basis column of free variable a."""
    free = hv.free_order
    v = reduce(np.multiply.outer, [phis[:e, a] for a, e in zip(
        free, resultant.col_extents)]).ravel(order="C")
    w = reduce(np.multiply.outer, [phis[:e, a] for a, e in zip(
        free, resultant.row_extents)]).ravel(order="C")
    return v, w


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def cayley_resultant_to_json(res):
    obj = matpoly_to_json(res.matrix_poly)
    obj["taus"] = [int(t) for t in res.taus]
    obj["unfolding"] = res.unfolding_map
    return obj

"""Sylvester-style resultant for bivariate systems.

With one variable hidden, a pair of bivariate polynomials becomes two
univariate polynomials q_1, q_2 in the kept variable whose coefficients
depend on the hidden one.  If their degrees in the kept variable are
tau_1 and tau_2, the square matrix of size tau_1 + tau_2 whose first
tau_2 rows expand phi_j * q_1 (j = 0..tau_2 - 1) and whose last tau_1
rows expand phi_j * q_2 (j = 0..tau_1 - 1) is singular exactly when the
two univariate polynomials share a root.  Viewed as a matrix polynomial
in the hidden variable it is an alternative to the Cayley construction
with smaller matrices for d = 2.  It is built the same way: the row
functions phi_j(y) q_c(y, z) are sampled on a grid of kept-variable
nodes times hidden-variable nodes and interpolated over both axes, with
operators from one cached plan per shape (_plan).

At a system root the right null vector is the basis column
(phi_0, ..., phi_{N-1}) at the kept component; the left null vector is
assembled from backward-recurrence shifts of q_1 and q_2, reflecting the
cofactor identity  (-q_2 * q_1 + q_1 * q_2) / (x - y) = 0.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import PLAN_CACHE_SIZE, basis_eval_all, clenshaw_shifts
from .matpoly import (MatrixPolynomial, _check_null_vectors, _checked_root,
                      matpoly_eval, matpoly_to_json)
from .multipoly import _contract_leading, _demote, _vandermonde_inverse

__all__ = [
    "SylvesterResultant",
    "sylvester_degrees",
    "sylvester_resultant",
    "sylvester_root_eigvectors",
    "sylvester_resultant_to_json",
]


@dataclass(frozen=True, eq=False)
class SylvesterResultant:
    """Matrix polynomial in the hidden variable with block bookkeeping.

    Rows 0..tau2 - 1 come from the first polynomial, rows tau2..N - 1
    from the second; N = tau1 + tau2."""

    matrix_poly: MatrixPolynomial
    tau1: int
    tau2: int

    @property
    def size(self):
        return self.tau1 + self.tau2

    @property
    def col_extents(self):
        """One axis: the right eigenvector is a single basis column."""
        return (self.size,)


def _free_axis_degree(tensor):
    """Exact degree along the kept axis (hidden axis is last)."""
    rows = np.nonzero(np.any(tensor != 0, axis=-1))[0]
    if rows.size == 0:
        return None
    return int(rows.max())


def sylvester_degrees(hv):
    """(tau_1, tau_2): kept-variable degrees of the two polynomials.

    Raises for identically zero polynomials and for pairs that are both
    constant in the kept variable (the matrix would be empty).
    """
    if hv.dim != 2:
        raise ValueError("this construction is bivariate only")
    taus = []
    for c, t in enumerate(hv.tensors):
        deg = _free_axis_degree(t)
        if deg is None:
            raise ValueError(f"polynomial {c} is identically zero")
        taus.append(deg)
    if taus[0] + taus[1] == 0:
        raise ValueError("both polynomials are constant in the kept "
                         "variable; nothing to eliminate")
    return tuple(taus)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(basis, n, tensor_shapes):
    """Shape-only operators of sylvester_resultant as read-only arrays:
    (phis, grid_phis, inverses).  phis is phi_0..phi_{n-1} at the n kept
    nodes, shape (node, j); grid_phis holds per tensor the basis values
    at the kept and at the hidden nodes; inverses are the transposed
    inverse Vandermonde matrices of both node sets, all nodes of
    basis.domain."""
    kept = basis.domain.nodes(n)
    hidden = basis.domain.nodes(max(shape[-1] for shape in tensor_shapes))
    phis = basis_eval_all(basis, n - 1, kept).T
    grid_phis = [tuple(basis_eval_all(basis, e - 1, x)
                       for e, x in zip(shape, (kept, hidden)))
                 for shape in tensor_shapes]
    inverses = tuple(_vandermonde_inverse(basis, x).T for x in (kept, hidden))
    for x in (phis, *inverses, *(a for ops in grid_phis for a in ops)):
        x.flags.writeable = False
    return phis, tuple(grid_phis), inverses


def sylvester_resultant(hv):
    """Matrix polynomial in the hidden variable via entrywise interpolation.

    Row r of the matrix is the function phi_j(y) q_c(y, z).  It is
    sampled on N kept-variable nodes times one more hidden-variable node
    than the hidden degree, and interpolation over both node axes gives
    its coefficients in phi_k(y) phi_m(z).  The basis values at the
    nodes and the inverse Vandermonde matrices come from the plan for
    this shape.
    """
    tau1, tau2 = sylvester_degrees(hv)
    phis, grid_phis, inverses = _plan(hv.basis, tau1 + tau2,
                                      tuple(t.shape for t in hv.tensors))
    q1, q2 = (_contract_leading(t, ops)
              for t, ops in zip(hv.tensors, grid_phis))
    samples = np.concatenate([phis[:, None, :tau2] * q1[:, :, None],
                              phis[:, None, :tau1] * q2[:, :, None]], axis=2)
    coeffs = _contract_leading(samples, inverses)  # r, k, m
    coeffs = np.ascontiguousarray(coeffs.transpose(2, 0, 1))
    return SylvesterResultant(matrix_poly=MatrixPolynomial(hv.basis, coeffs),
                              tau1=tau1, tau2=tau2)


def sylvester_root_eigvectors(hv, root, resultant, check=True):
    """Right/left null vectors of the matrix at a root of the system.

    The right vector is (phi_0(y), ..., phi_{N-1}(y)) at the kept
    component y.  The left vector carries -alpha_i b_{i+1}[q_2](y) on
    the q_1 block and alpha_i b_{i+1}[q_1](y) on the q_2 block, where
    the b_k are backward-recurrence shifts.  Both are unnormalized.

    Raises ValueError when a root component is NaN or infinite, and
    StructureError when either residual exceeds 1e-7 times the matrix
    norm (floored by the coefficient scale), or when P(z) is not finite
    (a hidden component that overflows the basis recurrence).
    """
    root = _checked_root(root, 2)
    kmax = max(resultant.size, *(t.shape[-1] for t in hv.tensors)) - 1
    v, w = _root_vectors(hv, resultant, root,
                         basis_eval_all(hv.basis, kmax, root))
    if check:
        P, z = resultant.matrix_poly, root[hv.hidden_index]
        _check_null_vectors(P, z, matpoly_eval(P, z), v, w)
    return v, w


def _root_vectors(hv, resultant, root, phis):
    """(v, w) of sylvester_root_eigvectors from phis, the basis values
    at both components of root, shape (K + 1, 2) with K + 1 at least
    the matrix size and every hidden extent.  q_1 and q_2 at the hidden
    component z are the tensors contracted with the column of z; where
    z overflows the recurrence they are not finite, and so is w."""
    y = root[hv.free_order[0]]
    tau1, tau2 = resultant.tau1, resultant.tau2
    n = tau1 + tau2
    basis = hv.basis
    v = np.ascontiguousarray(phis[:n, hv.free_order[0]])
    at_z = np.ascontiguousarray(phis[:, hv.hidden_index])
    u1, u2 = (_demote(t @ at_z[:t.shape[-1]])[:tau + 1]
              for t, tau in zip(hv.tensors, (tau1, tau2)))
    tab = basis.table(n - 2)
    alpha = tab.alpha
    w = np.empty(n, dtype=np.result_type(u1, u2, y, tab.dtype))
    if tau2 > 0:
        b2 = clenshaw_shifts(basis, u2, y)  # ascending b_1, b_2, ...
        w[:tau2] = -alpha[:tau2] * b2[:tau2]
    if tau1 > 0:
        b1 = clenshaw_shifts(basis, u1, y)
        w[tau2:] = alpha[:tau1] * b1[:tau1]
    return v, w


def sylvester_resultant_to_json(res):
    obj = matpoly_to_json(res.matrix_poly)
    obj["taus"] = [int(res.tau1), int(res.tau2)]
    obj["row_blocks"] = [int(res.tau2), int(res.tau1)]
    return obj

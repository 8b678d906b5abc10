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
operators from one cached plan per shape (_plan).  Both polynomials are
read from the system's zero-padded stack (HiddenVariableForm.coeffs):
one contraction samples q_1 and q_2, one product gives them at a root.
At one hidden value z (the conditioning probe) the hidden nodes are
replaced by [phi(z), phi'(z)], which gives R(z) and R'(z) from the
kept-axis interpolation alone (_values_at), since every entry is linear
in the hidden basis values.

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


def sylvester_degrees(hv):
    """(tau_1, tau_2): kept-variable degrees of the two polynomials, the
    last kept-variable index of each with a nonzero coefficient.

    Raises for identically zero polynomials and for pairs that are both
    constant in the kept variable (the matrix would be empty).
    """
    if hv.dim != 2:
        raise ValueError("this construction is bivariate only")
    nonzero = np.any(hv.coeffs, axis=-1)  # (polynomial, kept index)
    zero = ~nonzero.any(axis=1)
    if zero.any():
        raise ValueError(f"polynomial {zero.argmax()} is identically zero")
    taus = tuple((nonzero.shape[1] - 1
                  - nonzero[:, ::-1].argmax(axis=1)).tolist())
    if taus[0] + taus[1] == 0:
        raise ValueError("both polynomials are constant in the kept "
                         "variable; nothing to eliminate")
    return taus


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(basis, n, extents):
    """Shape-only operators of sylvester_resultant as read-only arrays:
    (phis, grid_phis, inverses).  phis is phi_0..phi_{n-1} at the n kept
    nodes, shape (node, j); grid_phis holds the basis values at the kept
    and at the hidden nodes up to the extents of the stack, (kept,
    hidden); inverses are the transposed inverse Vandermonde matrices of
    both node sets, all nodes of basis.domain."""
    nodes = (basis.domain.nodes(n), basis.domain.nodes(extents[-1]))
    phis = basis_eval_all(basis, n - 1, nodes[0]).T
    grid_phis = tuple(basis_eval_all(basis, e - 1, x)
                      for e, x in zip(extents, nodes))
    inverses = tuple(_vandermonde_inverse(basis, x).T for x in nodes)
    for x in (phis, *grid_phis, *inverses):
        x.flags.writeable = False
    return phis, grid_phis, inverses


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
                                      hv.coeffs.shape[1:])
    coeffs = _contract_leading(_samples(hv, (tau1, tau2), phis, grid_phis),
                               inverses)  # r, k, m
    coeffs = np.ascontiguousarray(coeffs.transpose(2, 0, 1))
    return SylvesterResultant(matrix_poly=MatrixPolynomial(hv.basis, coeffs),
                              tau1=tau1, tau2=tau2)


def _samples(hv, taus, phis, grid_phis):
    """The rows phi_j(y) q_c(y, z) at the kept nodes, shape (kept node,
    hidden, row): phis and grid_phis[0] are the plan's, and grid_phis[1]
    is a basis-value matrix of the hidden variable, (e_hidden, h)."""
    tau1, tau2 = taus
    # polynomial axis last, so it is carried through to the front
    q1, q2 = _contract_leading(hv.coeffs.transpose(1, 2, 0), grid_phis)
    return np.concatenate([phis[:, None, :tau2] * q1[:, :, None],
                           phis[:, None, :tau1] * q2[:, :, None]], axis=2)


def _values_at(hv, taus, pair):
    """R(z) and R'(z) of the resultant with degrees taus = (tau_1, tau_2),
    shape (2, N, N), without its matrix polynomial: pair is [phi(z),
    phi'(z)], the hidden variable's basis values and derivatives at z,
    (e_hidden, 2).  Every entry is linear in the hidden basis values, so
    the rows sampled with pair in place of the hidden nodes hold both,
    and interpolation over the kept axis alone gives their coefficients.
    """
    phis, grid_phis, inverses = _plan(hv.basis, sum(taus),
                                      hv.coeffs.shape[1:])
    return _contract_leading(_samples(hv, taus, phis, (grid_phis[0], pair)),
                             inverses[:1])


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
    taus = (resultant.tau1, resultant.tau2)
    v, w = _root_vectors(hv, taus, root,
                         basis_eval_all(hv.basis, _degree(hv, taus), root))
    if check:
        P, z = resultant.matrix_poly, root[hv.hidden_index]
        _check_null_vectors(z, matpoly_eval(P, z), v, w,
                            lambda: P.coeff_scale)
    return v, w


def _degree(hv, taus):
    """The highest basis degree _root_vectors reads for degrees taus: v
    reads the kept variable up to the matrix size, and q_1, q_2 the
    hidden one up to its extent in the stack."""
    return max(sum(taus), hv.coeffs.shape[-1]) - 1


def _root_vectors(hv, taus, root, phis):
    """(v, w) of sylvester_root_eigvectors for the resultant with degrees
    taus = (tau_1, tau_2), (N,) each, or (m, N) for a stack of m roots,
    from phis, the basis values at both components, shape (K + 1, 2) or
    (K + 1, m, 2) with K at least _degree(hv, taus).  q_1 and q_2 at the
    hidden component z are the form's polynomials frozen at z
    (HiddenVariableForm._freeze); where z overflows the recurrence they
    are not finite, and so is w."""
    y = root.T[hv.free_order[0]]  # a scalar, or one per row of a stack
    tau1, tau2 = taus
    n = tau1 + tau2
    v = np.ascontiguousarray(phis[:n, ..., hv.free_order[0]].T)
    q = _demote(hv._freeze(phis[..., hv.hidden_index]))
    alpha = hv.basis.table(n - 2).alpha
    # one backward recurrence over both, zero-padded to the higher degree
    u = np.zeros((max(tau1, tau2) + 1, 2) + np.shape(y), dtype=q.dtype)
    u[:tau2 + 1, 0], u[:tau1 + 1, 1] = q[1, :tau2 + 1], q[0, :tau1 + 1]
    b = clenshaw_shifts(hv.basis, u, y)  # ascending b_1, b_2, ...
    w = np.empty(np.shape(y) + (n,), dtype=np.result_type(b, alpha))
    w[..., :tau2] = -alpha[:tau2] * b[:tau2, 0].T
    w[..., tau2:] = alpha[:tau1] * b[:tau1, 1].T
    return v, w


def sylvester_resultant_to_json(res):
    obj = matpoly_to_json(res.matrix_poly)
    obj["taus"] = [int(res.tau1), int(res.tau2)]
    obj["row_blocks"] = [int(res.tau2), int(res.tau1)]
    return obj

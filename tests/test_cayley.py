"""Cayley function, tensor and resultant against determinant-formula and
synthetic-division oracles."""

import json
from functools import reduce

import numpy as np
import pytest

from resultant_lab.basis import DegreeGradedBasis, Domain, basis_eval_all
from resultant_lab.cayley import (_cofactor_det, _grid_values,
                                  cayley_resultant,
                                  cayley_resultant_to_json,
                                  cayley_root_eigvectors, default_taus)
from resultant_lab.matpoly import (StructureError, matpoly_eval,
                                   matpoly_from_json, polyeig)
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem, _stacked,
                                     eval_with_jacobian, hide_variable)
from resultant_lab.rootfinder import (condition_at_root,
                                      family_orthogonal_quadratic,
                                      random_system_with_root, solve_system)
from resultant_lab.sylvester import (sylvester_resultant,
                                     sylvester_root_eigvectors)
from conftest import (PLAN_CACHES, circle_line, dense_gamma_basis,
                      naive_eval, report_fields)


def det_formula(M):
    """Cofactor expansion along the first row, independent of numpy.linalg."""
    if len(M) == 1:
        return M[0, 0]
    return sum((-1) ** c * M[0, c] * det_formula(np.delete(M[1:], c, axis=1))
               for c in range(len(M)))


def function_oracle(hv, s, t, z):
    """Mixed-argument determinant quotient via naive evaluation only."""
    d = hv.dim
    qs = [hv.q_at(c, z) for c in range(d)]
    M = np.empty((d, d), dtype=complex)
    for r in range(d):
        point = np.concatenate([t[:r], s[r:]])
        for c in range(d):
            M[r, c] = naive_eval(qs[c], point)
    return det_formula(M) / np.prod(np.asarray(s) - np.asarray(t))


def bezout_matrix(q1, q2):
    """Synthetic division of q1(s) q2(t) - q1(t) q2(s) by (s - t).

    B[i, j] is the coefficient of s^i t^j; the classical bivariate
    quotient recurrence B[i-1, j] = N[i, j] + B[i, j-1]."""
    m = max(len(q1), len(q2)) - 1
    a = np.zeros(m + 1, dtype=complex)
    a[:len(q1)] = q1
    b = np.zeros(m + 1, dtype=complex)
    b[:len(q2)] = q2
    N = np.outer(a, b) - np.outer(b, a)
    B = np.zeros((m, m), dtype=complex)
    for i in range(m, 0, -1):
        for j in range(m):
            val = N[i, j]
            if i < m and j >= 1:
                val = val + B[i, j - 1]
            B[i - 1, j] = val
    return B


def contract(tensor, basis, taus, s, t):
    """sum over all indices of coeff * prod phi_{i_k}(s_k) phi_{j_k}(t_k)."""
    d = len(taus) + 1
    T = tensor
    for k0 in range(d - 2, -1, -1):
        ext = taus[d - 2 - k0] + 1
        T = T @ basis_eval_all(basis, ext - 1, complex(t[k0]))
    for k0 in range(d - 2, -1, -1):
        T = T @ basis_eval_all(basis, taus[k0] - 1 + 1, complex(s[k0]))
    return complex(T)


def tensor_at(res, z):
    """The function's coefficient tensor at hidden value z, indexed
    (s axes, t axes): the resultant at z, folded back."""
    return matpoly_eval(res.matrix_poly, z).reshape(res.row_extents
                                                    + res.col_extents)


# ----------------------------------------------------------------------
# Function evaluation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("d,n,seed", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
def test_function_matches_det_oracle(d, n, seed):
    sys_, _ = random_system_with_root(d, n, seed, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    rng = np.random.default_rng(seed + 100)
    for _ in range(5):
        s = rng.uniform(-1, 1, d - 1)
        t = rng.uniform(-1, 1, d - 1)
        z = rng.uniform(-1, 1)
        want = function_oracle(hv, s, t, z)
        got = contract(tensor_at(res, z), hv.basis, res.taus, s, t)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def grid_basis(name, domain):
    if name == "dense":
        return dense_gamma_basis(domain)
    return DegreeGradedBasis(name, domain=domain)


@pytest.mark.parametrize("basis_name",
                         ["monomial", "chebyshev", "legendre", "dense"])
@pytest.mark.parametrize("kind", ["interval", "disc"])
@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 2)])
def test_grid_values_match_pointwise_oracle(d, n, kind, basis_name):
    rng = np.random.default_rng(10 * d + n)
    disc = kind == "disc"
    dom = Domain.disc(0.2 + 0.1j, 1.5) if disc else Domain.interval(-1, 1)
    basis = grid_basis(basis_name, dom)
    polys = []
    for i in range(d):
        # lower degree in variable i for odd i: the stacked tensors need
        # zero padding
        shape = tuple(n + (a != i or i % 2 == 0) for a in range(d))
        c = rng.standard_normal(shape)
        if disc:
            c = c + 1j * rng.standard_normal(shape)
        polys.append(MultiPoly(basis, d, c))
    hv = hide_variable(PolynomialSystem(tuple(polys)))

    def points(m, side):
        # s points (side 1) and t points (side -1) lie in opposite halves
        # of the domain, so s_k - t_k stays away from zero
        x = side * rng.uniform(0.1, 0.9, m)
        if disc:
            return dom.center + 1.5 * x * np.exp(1j * rng.uniform(0.3, 2.8, m))
        return x.astype(complex)

    s_sets = [points(rng.integers(1, 4), 1) for _ in range(d - 1)]
    t_sets = [points(rng.integers(1, 4), -1) for _ in range(d - 1)]
    hidden = points(2, 1)
    T = _stacked(hv.tensors)
    ext = T.shape[1:]
    phis = [basis_eval_all(basis, e - 1, x) for e, x in
            zip((ext[-1], *ext[:-1], *ext[:-1]), (hidden, *s_sets, *t_sets))]
    F = _grid_values(T, s_sets, t_sets, phis)
    assert F.shape == ((2,) + tuple(len(x) for x in s_sets)
                       + tuple(len(x) for x in t_sets))
    for _ in range(4):
        idx = tuple(int(rng.integers(e)) for e in F.shape)
        s = np.array([s_sets[k][i] for k, i in enumerate(idx[1:d])])
        t = np.array([t_sets[k][i] for k, i in enumerate(idx[d:])])
        want = function_oracle(hv, s, t, hidden[idx[0]])
        assert abs(F[idx] - want) <= 1e-11 * (1 + abs(want))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cofactor_det_matches_lapack_on_broadcast_stacks(d):
    rng = np.random.default_rng(d)
    full = (3, 2, 4)
    rows = [[None] * d for _ in range(d)]
    for r in range(d):
        for c in range(d):
            # each entry spans a random subset of the grid axes
            shape = tuple(e if rng.random() < 0.5 else 1 for e in full)
            rows[r][c] = (rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
    got = _cofactor_det(rows)
    M = np.empty(full + (d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            M[..., r, c] = rows[r][c]
    want = np.linalg.det(M)
    assert np.broadcast_shapes(got.shape, full) == full
    bound = np.prod(np.sum(np.abs(M), axis=-1), axis=-1)
    assert np.all(np.abs(got - want) <= 1e-13 * bound)


# ----------------------------------------------------------------------
# Degree bounds
# ----------------------------------------------------------------------

def test_default_taus_worst_case(mono):
    sys_ = circle_line(mono)
    assert default_taus(hide_variable(sys_)) == (1,)  # n = 2 -> 1*2 - 1


def test_default_taus_structural_zero_for_linear(mono):
    from resultant_lab.rootfinder import family_linear
    for d in (2, 3, 4):
        sys_, _ = family_linear(d, seed=d)
        assert default_taus(hide_variable(sys_)) == (0,) * (d - 1)


@pytest.mark.parametrize("d", [2, 3])
def test_default_taus_zero_for_affine_with_zero_slabs(mono, d):
    # affine in the free variables inside tensors of extent 4 on every
    # axis, so the slabs of free degree 2 and 3 are explicit zeros; the
    # terms x_d^3 and x_1 x_d^2 sit on the hidden axis and keep free
    # weight at most one
    rng = np.random.default_rng(d)
    polys = []
    for _ in range(d):
        c = np.zeros((4,) * d)
        c[(0,) * d] = rng.standard_normal()
        for a in range(d):
            c[tuple(int(b == a) for b in range(d))] = rng.standard_normal()
        c[(0,) * (d - 1) + (3,)] = rng.standard_normal()
        c[(1,) + (0,) * (d - 2) + (2,)] = rng.standard_normal()
        polys.append(MultiPoly(mono, d, c))
    hv = hide_variable(PolynomialSystem(tuple(polys)))
    assert hv.max_degree == 3
    assert default_taus(hv) == (0,) * (d - 1)


@pytest.mark.parametrize("shape,want", [((2, 2, 2), (0, 1)),
                                        ((3, 3, 3), (1, 3))])
def test_default_taus_full_for_mixed_degree_two(mono, shape, want):
    # the only free term of degree two is x_1 x_2: no single free axis
    # reaches index 2, and the system still gets the bounds k n - 1
    polys = []
    for k in range(3):
        c = np.zeros(shape)
        c[0, 0, 0], c[1, 0, 0], c[0, 1, 0] = 1.0 + k, 0.5, -0.25
        c[0, 0, 1], c[1, 1, 0] = 0.75, 2.0
        polys.append(MultiPoly(mono, 3, c))
    assert default_taus(hide_variable(PolynomialSystem(tuple(polys)))) == want


def test_taus_override_padding_is_zero(mono):
    # a linear system expanded under generous bounds has vanishing
    # higher-order coefficients
    from resultant_lab.rootfinder import family_linear
    sys_, _ = family_linear(3, seed=9)
    hv = hide_variable(sys_)
    A = tensor_at(cayley_resultant(hv, taus=(1, 1)), 0.3)
    assert A.shape == (2, 2, 2, 2)
    mask = np.zeros_like(A, dtype=bool)
    mask[0, 0, 0, 0] = True
    top = np.max(np.abs(A))
    assert np.all(np.abs(A[~mask]) <= 1e-10 * top)


def test_constant_system_rejected(mono):
    p = MultiPoly(mono, 2, np.full((1, 1), 2.0))
    sys_ = PolynomialSystem((p, p))
    with pytest.raises(ValueError):
        default_taus(hide_variable(sys_))


# ----------------------------------------------------------------------
# Coefficient tensor
# ----------------------------------------------------------------------

@pytest.mark.parametrize("d,n,seed,basis_name", [
    (2, 2, 3, "chebyshev"), (2, 3, 4, "monomial"),
    (3, 2, 5, "monomial"), (3, 2, 6, "legendre")])
def test_coeffs_reproduce_off_grid_values(d, n, seed, basis_name):
    sys_, _ = random_system_with_root(d, n, seed, basis_name=basis_name)
    hv = hide_variable(sys_)
    z = 0.213
    res = cayley_resultant(hv)
    A = tensor_at(res, z)
    rng = np.random.default_rng(seed + 50)
    for _ in range(4):
        s = rng.uniform(-1, 1, d - 1)
        t = rng.uniform(-1, 1, d - 1)
        want = function_oracle(hv, s, t, z)
        got = contract(A, hv.basis, res.taus, s, t)
        assert abs(got - want) <= 1e-8 * (1 + abs(want))


def test_coeffs_match_bezout_oracle_d2(mono):
    rng = np.random.default_rng(31)
    for _ in range(5):
        c1 = rng.standard_normal((4, 4))
        c2 = rng.standard_normal((4, 4))
        sys_ = PolynomialSystem((MultiPoly(mono, 2, c1),
                                 MultiPoly(mono, 2, c2)))
        hv = hide_variable(sys_)
        z = rng.uniform(-1, 1)
        A = tensor_at(cayley_resultant(hv), z)
        q1 = hv.tensors[0] @ basis_eval_all(mono, 3, complex(z))
        q2 = hv.tensors[1] @ basis_eval_all(mono, 3, complex(z))
        B = bezout_matrix(q1, q2)
        assert A.shape == B.shape == (3, 3)
        assert np.allclose(A, B, atol=1e-9 * (1 + np.max(np.abs(B))))


def test_tensor_extents(cheb):
    sys_, _ = random_system_with_root(3, 2, 7, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    assert res.taus == (1, 3)
    assert res.row_extents == (2, 4)
    assert res.col_extents == (4, 2)
    assert res.matrix_poly.size == 8
    assert tensor_at(res, 0.0).shape == (2, 4, 4, 2)


# ----------------------------------------------------------------------
# Resultant matrix polynomial
# ----------------------------------------------------------------------

def test_resultant_interpolation_consistent(cheb):
    sys_, _ = random_system_with_root(3, 2, 8, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    rng = np.random.default_rng(8)
    for z in (0.111, -0.632):
        A = tensor_at(res, z)
        for _ in range(3):
            s = rng.uniform(-1, 1, 2)
            t = rng.uniform(-1, 1, 2)
            want = function_oracle(hv, s, t, z)
            got = contract(A, hv.basis, res.taus, s, t)
            assert abs(got - want) <= 1e-8 * (1 + abs(want))


def test_resultant_eigenvalues_contain_hidden_components(mono):
    sys_ = circle_line(mono)
    res = cayley_resultant(hide_variable(sys_))
    lams = polyeig(res.matrix_poly)[0]
    for want in (0.5, -0.5):
        assert min(abs(l - want) for l in lams) <= 1e-8


def test_unfold_fold_and_strides(cheb):
    sys_, _ = random_system_with_root(3, 2, 12, basis_name="chebyshev")
    res = cayley_resultant(hide_variable(sys_))
    ext = res.row_extents + res.col_extents
    tensor = np.arange(np.prod(ext)).reshape(ext)
    n = res.matrix_poly.size
    M = tensor.reshape(n, n)
    assert np.array_equal(M.reshape(ext), tensor)
    # strides really are C-order: stepping the last row axis moves by 1
    assert res.row_strides[-1] == 1
    assert res.row_strides[0] == res.row_extents[1]
    # entry lookup through the stride map
    i = (1, 2)
    j = (3, 0)
    r = sum(a * b for a, b in zip(i, res.row_strides))
    c = sum(a * b for a, b in zip(j, res.col_strides))
    assert M[r, c] == tensor[i + j]


# ----------------------------------------------------------------------
# Diagonal values
# ----------------------------------------------------------------------

def diagonal_value(hv, res, free, z):
    """The function at s = t = free: the resultant at z contracted with
    the structured vectors at free on both sides."""
    v, w = cayley_root_eigvectors(hv, np.append(free, z), res, check=False)
    return w @ matpoly_eval(res.matrix_poly, z) @ v


def test_diagonal_value_is_off_diagonal_limit(cheb):
    sys_, _ = random_system_with_root(2, 3, 13, basis_name="chebyshev")
    hv = hide_variable(sys_)
    z = 0.21
    x1 = 0.4
    want = diagonal_value(hv, cayley_resultant(hv), [x1], z)
    eps = 1e-7
    near = function_oracle(hv, [x1 + eps], [x1 - eps], z)
    assert abs(want - near) <= 1e-5 * (1 + abs(want))


def test_diagonal_derivative_equals_jacobian_det():
    # central difference of the diagonal value in the hidden variable
    for d, n, seed in ((2, 2, 14), (3, 2, 15)):
        sys_, root = random_system_with_root(d, n, seed)
        hv = hide_variable(sys_)
        res = cayley_resultant(hv)
        free, z = root[:-1], complex(root[-1])
        h = 1e-6 * max(1.0, abs(z))
        got = (diagonal_value(hv, res, free, z + h)
               - diagonal_value(hv, res, free, z - h)) / (2.0 * h)
        want = np.linalg.det(eval_with_jacobian(sys_, root)[1])
        assert abs(got - want) <= 1e-6 * (1 + abs(want))


@pytest.mark.parametrize("sigma", [0.5, 0.2, 0.1])
def test_condition_at_root_d4_orthogonal_family(sigma):
    # the origin has Jacobian sigma * I, so det J = sigma**4; the
    # monomial structured vectors there are unit vectors, so
    # kappa_eig = 1 / |rayleigh| = sigma**-4
    rec = condition_at_root(family_orthogonal_quadratic(4, sigma),
                            np.zeros(4))
    assert rec.jacobian_det == pytest.approx(sigma ** 4, rel=1e-12)
    assert abs(rec.rayleigh - rec.jacobian_det) <= 1e-10 * sigma ** 4
    assert rec.eig_condition == pytest.approx(sigma ** -4, rel=1e-10)
    assert rec.root_condition == pytest.approx(1 / sigma, rel=1e-12)


# ----------------------------------------------------------------------
# Structured eigenvectors
# ----------------------------------------------------------------------

def test_root_eigvectors_structure(cheb):
    sys_, root = random_system_with_root(3, 2, 16, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    v, w = cayley_root_eigvectors(hv, root, res)
    # outer-product structure of the right vector
    free = root[:2]
    cols = [basis_eval_all(cheb, e - 1, free[k])
            for k, e in enumerate(res.col_extents)]
    outer = np.multiply.outer(cols[0], cols[1]).ravel()
    assert np.allclose(v, outer, atol=1e-12)
    R0 = matpoly_eval(res.matrix_poly, root[-1])
    scale = np.linalg.norm(R0, 2)
    assert np.linalg.norm(R0 @ v) <= 1e-7 * scale * np.linalg.norm(v)
    assert np.linalg.norm(R0.T @ w) <= 1e-7 * scale * np.linalg.norm(w)


def test_root_eigvectors_reject_non_root(cheb):
    sys_, root = random_system_with_root(2, 2, 17, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    with pytest.raises(StructureError):
        cayley_root_eigvectors(hv, [0.123, 0.456], res)
    # check=False skips the residual guard
    v, w = cayley_root_eigvectors(hv, [0.123, 0.456], res, check=False)
    assert v.shape == w.shape


@pytest.mark.parametrize("basis_name,domain", [
    ("chebyshev", None), ("dense", None),
    ("legendre", Domain.disc(0.2 + 0.1j, 1.5))],
    ids=["chebyshev", "dense", "disc"])
@pytest.mark.parametrize("d,n", [(2, 4), (3, 2), (4, 2)])
def test_root_eigvectors_match_per_axis_evaluation(d, n, basis_name, domain):
    # the vectors come from one basis_eval_all over all free components;
    # one call per axis at that axis's extent gives the same bits
    basis = grid_basis(basis_name, domain)
    sys_, root = random_system_with_root(d, n, [d, n, 3], basis)
    for hidden in (d - 1, 0):
        hv = hide_variable(sys_, hidden)
        res = cayley_resultant(hv)
        free = root[list(hv.free_order)]

        def per_axis(extents):
            return reduce(np.multiply.outer,
                          [basis_eval_all(basis, e - 1, complex(free[k]))
                           for k, e in enumerate(extents)]).ravel()

        v, w = cayley_root_eigvectors(hv, root, res)
        assert np.array_equal(v, per_axis(res.col_extents))
        assert np.array_equal(w, per_axis(res.row_extents))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "nan-imag"])
@pytest.mark.parametrize("index", [0, 1])
def test_root_eigvectors_reject_non_finite_root(bad, index):
    # NaN compares false, so a NaN root must be stopped before any
    # tolerance test sees its vectors
    sys_, root = random_system_with_root(2, 3, 18, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    root = np.asarray(root, dtype=complex)
    root[index] = bad
    msg = rf"non-finite root components at index \({index},\)$"
    with pytest.raises(ValueError, match=msg):
        cayley_root_eigvectors(hv, root, res)
    with pytest.raises(ValueError, match=msg):
        condition_at_root(sys_, root)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_root_component_fails_with_structure_error(two_norm_calls):
    # a finite but huge hidden component overflows P(z) to inf; the check
    # names it before any SVD, which numpy cannot take of a non-finite
    # matrix.  A huge free component leaves P(z) finite and NaN residuals.
    sys_, _ = random_system_with_root(2, 3, 1, basis_name="chebyshev")
    with pytest.raises(StructureError, match=r"P\(z\) is not finite"):
        condition_at_root(sys_, [0.0, 1e200])
    assert two_norm_calls == []
    with pytest.raises(StructureError, match="residuals nan/nan"):
        condition_at_root(sys_, [1e200, 0.0])
    # P(z) with entries near 1e241 is finite but its Frobenius norm is
    # not; the SVD then decides, and this point is no root
    with pytest.raises(StructureError, match="exceed 1e-7"):
        condition_at_root(sys_, [0.3, 1e40])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_hidden_component_fails_alike_with_sylvester(two_norm_calls):
    # q_1 and q_2 at a hidden component that overflows the recurrence are
    # not finite, and neither is P(z): the Sylvester route names P(z),
    # as the Cayley one does, not the coefficients of q
    sys_, _ = random_system_with_root(2, 3, 1, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    with pytest.raises(StructureError, match=r"P\(z\) is not finite"):
        condition_at_root(sys_, [0.0, 1e200], method="sylvester")
    with pytest.raises(StructureError, match=r"P\(z\) is not finite"):
        sylvester_root_eigvectors(hv, [0.0, 1e200], res)
    assert two_norm_calls == []


def test_null_vector_check_takes_no_svd_at_planted_roots(two_norm_calls):
    # at a root the residuals pass against the Frobenius lower bound of
    # ||P(z)||_2, so the check never asks for the 2-norm's SVD
    for seed in range(4):
        for d, n in ((3, 3), (2, 8)):
            for name in ("chebyshev", "legendre"):
                sys_, root = random_system_with_root(d, n, [seed, d], name)
                hv = hide_variable(sys_)
                cases = [(cayley_root_eigvectors, cayley_resultant(hv))]
                if d == 2:
                    cases.append((sylvester_root_eigvectors,
                                  sylvester_resultant(hv)))
                for root_eigvectors, res in cases:
                    two_norm_calls.clear()
                    root_eigvectors(hv, root, res)
                    assert two_norm_calls == []
    np.linalg.norm(np.eye(2), 2)
    assert two_norm_calls == [(2, 2)]


# ----------------------------------------------------------------------
# Disc domains and serialization
# ----------------------------------------------------------------------

def test_disc_domain_coefficients():
    dom = Domain.disc(0.0, 1.5)
    basis = DegreeGradedBasis.monomial(dom)
    rng = np.random.default_rng(18)
    c1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sys_ = PolynomialSystem((MultiPoly(basis, 2, c1),
                             MultiPoly(basis, 2, c2)))
    hv = hide_variable(sys_)
    z = 0.3 + 0.2j
    res = cayley_resultant(hv)
    s = np.array([0.25 - 0.4j])
    t = np.array([-0.6 + 0.1j])
    want = function_oracle(hv, s, t, z)
    got = contract(tensor_at(res, z), basis, res.taus, s, t)
    assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_resultant_json(mono):
    sys_ = circle_line(mono)
    res = cayley_resultant(hide_variable(sys_))
    obj = json.loads(json.dumps(cayley_resultant_to_json(res)))
    assert obj["taus"] == [1]
    assert obj["unfolding"]["row_extents"] == [2]
    P = matpoly_from_json(obj)
    assert np.allclose(P.coeffs, res.matrix_poly.coeffs)


@pytest.mark.parametrize("call,match", [
    (lambda hv, res: default_taus(hide_variable(PolynomialSystem(
        (MultiPoly(hv.basis, 1, [1.0, 2.0]),)))), "needs d >= 2"),
    (lambda hv, res: cayley_resultant(hv, taus=(1, 2)),
     "need 1 nonnegative degree bounds"),
    (lambda hv, res: cayley_resultant(hv, taus=(-1,)),
     "need 1 nonnegative degree bounds"),
    (lambda hv, res: cayley_root_eigvectors(hv, [0.5], res),
     "root must have length 2"),
], ids=["d1", "taus-count", "taus-negative", "root-length"])
def test_input_validation_raises(mono, call, match):
    hv = hide_variable(circle_line(mono))
    res = cayley_resultant(hv)
    with pytest.raises(ValueError, match=match):
        call(hv, res)


# ----------------------------------------------------------------------
# Plan caches: cold and warm builds agree bit for bit
# ----------------------------------------------------------------------

def _bits(*arrays):
    return [(np.shape(a), np.asarray(a).tobytes()) for a in arrays]


@pytest.mark.parametrize("basis_name",
                         ["monomial", "chebyshev", "legendre", "dense"])
@pytest.mark.parametrize("kind", ["interval", "disc"])
@pytest.mark.parametrize("d", [2, 3])
def test_memo_cold_and_warm_builds_are_bitwise_equal(d, kind, basis_name):
    dom = (Domain.disc(0.2 + 0.1j, 1.5) if kind == "disc"
           else Domain.interval(-1, 1))
    basis = (dense_gamma_basis(dom) if basis_name == "dense"
             else DegreeGradedBasis(basis_name, domain=dom))
    sys_, root = random_system_with_root(d, 2, [d, 31], basis)
    hv = hide_variable(sys_)
    methods = ("cayley", "sylvester") if d == 2 else ("cayley",)

    def build(cold):
        # cold: every call starts from empty plan caches of that list
        def run(fn, *args, **kw):
            for plan in cold:
                plan.cache_clear()
            return fn(*args, **kw)

        out = _bits(run(cayley_resultant, hv).matrix_poly.coeffs)
        if d == 2:
            out += _bits(run(sylvester_resultant, hv).matrix_poly.coeffs)
        for method in methods:
            rec = run(condition_at_root, sys_, root, method=method)
            out += _bits(rec.eig_condition, rec.rayleigh, rec.jacobian_det,
                         rec.root_condition)
            out.append(report_fields(run(solve_system, sys_, method)))
        return out

    plans = list(PLAN_CACHES.values())
    cold = build(plans)
    hits = [plan.cache_info().hits for plan in plans]
    assert build([]) == cold
    used = [True, d == 2, True]  # the Sylvester plan serves d = 2 alone
    assert [plan.cache_info().hits > h
            for plan, h in zip(plans, hits)] == used
    # each cache alone cold, the others warm
    for plan in plans:
        assert build([plan]) == cold

"""Multivariate evaluation, interpolation and Jacobians against naive
reference implementations."""

import itertools
import json

import numpy as np
import pytest

from resultant_lab.basis import (DegreeGradedBasis, Domain, basis_eval_all,
                                 derivative_eval)
from resultant_lab.multipoly import (HiddenVariableForm, MultiPoly,
                                     NonSimpleRootError, PolynomialSystem,
                                     _root_conditions, eval_with_jacobian,
                                     hide_variable, interpolate_on_nodes,
                                     jacobian, max_solution_bound, mp_eval,
                                     mp_eval_grid, mp_interpolate,
                                     root_condition, system_from_json,
                                     system_to_json)


def naive_eval(p, x):
    """Triple-checked reference: explicit sum over all tensor entries."""
    tables = [basis_eval_all(p.basis, p.coeffs.shape[a] - 1, complex(x[a]))
              for a in range(p.dim)]
    total = 0.0j
    for idx in itertools.product(*[range(e) for e in p.coeffs.shape]):
        term = p.coeffs[idx]
        for a, i in enumerate(idx):
            term = term * tables[a][i]
        total += term
    return total


def random_poly(rng, basis, dim, degrees):
    shape = tuple(n + 1 for n in degrees)
    return MultiPoly(basis, dim, rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))


@pytest.fixture
def mono():
    return DegreeGradedBasis.monomial()


@pytest.fixture
def cheb():
    return DegreeGradedBasis.chebyshev()


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dim,degrees", [(1, (4,)), (2, (2, 3)),
                                         (3, (1, 2, 2)), (4, (1, 1, 1, 1))])
def test_eval_matches_naive(cheb, dim, degrees):
    rng = np.random.default_rng(dim)
    p = random_poly(rng, cheb, dim, degrees)
    for _ in range(5):
        x = rng.uniform(-1, 1, dim)
        want = naive_eval(p, x)
        assert abs(mp_eval(p, x) - want) <= 1e-12 * (1 + abs(want))


def test_eval_grid_matches_pointwise(cheb):
    rng = np.random.default_rng(4)
    p = random_poly(rng, cheb, 3, (2, 1, 3))
    nodes = [rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 4),
             rng.uniform(-1, 1, 3)]
    grid = mp_eval_grid(p, nodes)
    assert grid.shape == (2, 4, 3)
    for i, j, k in itertools.product(range(2), range(4), range(3)):
        want = mp_eval(p, [nodes[0][i], nodes[1][j], nodes[2][k]])
        assert abs(grid[i, j, k] - want) <= 1e-11 * (1 + abs(want))


def test_eval_input_validation(mono):
    p = MultiPoly(mono, 2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        mp_eval(p, [1.0])
    with pytest.raises(ValueError):
        mp_eval_grid(p, [[0.1]])
    with pytest.raises(ValueError):
        MultiPoly(mono, 2, np.ones((2,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_coefficients_rejected(mono, bad):
    c = np.ones((2, 3), dtype=complex)
    c[1, 2] = bad
    with pytest.raises(ValueError, match=r"non-finite .*\(1, 2\)"):
        MultiPoly(mono, 2, c)


# ----------------------------------------------------------------------
# Interpolation
# ----------------------------------------------------------------------

def test_interpolation_roundtrip(cheb):
    rng = np.random.default_rng(8)
    p = random_poly(rng, cheb, 2, (3, 2))
    nodes = [cheb.domain.nodes(4), cheb.domain.nodes(3)]
    samples = mp_eval_grid(p, nodes)
    coeffs = interpolate_on_nodes(cheb, nodes, samples)
    assert np.allclose(coeffs, p.coeffs, atol=1e-12)


def test_mp_interpolate_recovers(mono):
    rng = np.random.default_rng(15)
    p = random_poly(rng, mono, 3, (2, 2, 1))
    nodes = [mono.domain.nodes(n + 1) for n in (2, 2, 1)]
    q = mp_interpolate(mono, 3, (2, 2, 1), mp_eval_grid(p, nodes))
    assert np.allclose(q.coeffs, p.coeffs, atol=1e-12)


def test_interpolation_validation(mono):
    with pytest.raises(ValueError):
        interpolate_on_nodes(mono, [[0.0, 0.0]], np.ones(2))  # repeated node
    with pytest.raises(ValueError):
        interpolate_on_nodes(mono, [[0.0, 1.0]], np.ones(3))  # size mismatch
    with pytest.raises(ValueError):
        mp_interpolate(mono, 2, (1, 1), np.ones((2, 3)))
    with pytest.raises(ValueError):  # fewer sample axes than node sets
        interpolate_on_nodes(mono, [[0.0, 1.0], [2.0, 3.0]], np.ones(2))


def test_interpolation_carries_trailing_axes(cheb):
    rng = np.random.default_rng(6)
    polys = [random_poly(rng, cheb, 2, (3, 2)) for _ in range(2)]
    nodes = [cheb.domain.nodes(4), cheb.domain.nodes(3)]
    samples = np.stack([mp_eval_grid(p, nodes) for p in polys], axis=-1)
    coeffs = interpolate_on_nodes(cheb, nodes, samples)
    assert coeffs.shape == (4, 3, 2)
    for k, p in enumerate(polys):
        assert np.allclose(coeffs[..., k], p.coeffs, atol=1e-12)


# ----------------------------------------------------------------------
# System container and hidden-variable rewrite
# ----------------------------------------------------------------------

def circle_line(mono):
    c1 = np.zeros((3, 3), dtype=complex)
    c1[0, 0], c1[2, 0], c1[0, 2] = -0.5, 1.0, 1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1] = 1.0, -1.0
    return PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))


def test_system_validation(mono, cheb):
    p = MultiPoly(mono, 2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        PolynomialSystem((p,))  # not square
    q = MultiPoly(cheb, 2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        PolynomialSystem((p, q))  # mixed bases
    r = MultiPoly(mono, 1, np.ones(3))
    with pytest.raises(ValueError):
        PolynomialSystem((p, r))  # mixed dims


def test_system_defaults(mono):
    sys_ = circle_line(mono)
    assert sys_.dim == 2
    assert sys_.max_degree == 2
    assert sys_.domain == mono.domain


def test_hide_variable_consistency(cheb):
    rng = np.random.default_rng(21)
    polys = tuple(random_poly(rng, cheb, 3, (2, 2, 2)) for _ in range(3))
    sys_ = PolynomialSystem(polys)
    for hidden in range(3):
        hv = hide_variable(sys_, hidden)
        assert isinstance(hv, HiddenVariableForm)
        assert hv.free_order == tuple(a for a in range(3) if a != hidden)
        for _ in range(4):
            x = rng.uniform(-1, 1, 3)
            direct = np.array([mp_eval(p, x) for p in polys])
            split = np.array([mp_eval(hv.q_at(c, x[hidden]),
                                      x[list(hv.free_order)])
                              for c in range(3)])
            assert np.allclose(split, direct, atol=1e-11)


def test_hide_variable_default_is_last(mono):
    sys_ = circle_line(mono)
    assert hide_variable(sys_).hidden_index == 1
    with pytest.raises(ValueError):
        hide_variable(sys_, 5)


def test_frozen_slice(cheb):
    rng = np.random.default_rng(30)
    p = random_poly(rng, cheb, 2, (3, 2))
    sys_ = PolynomialSystem((p, p))
    hv = hide_variable(sys_, 1)
    z = 0.4
    q = hv.q_at(0, z)
    for x1 in (-0.3, 0.0, 0.77):
        assert abs(mp_eval(q, [x1]) - mp_eval(p, [x1, z])) <= 1e-12


# ----------------------------------------------------------------------
# Jacobian and conditioning
# ----------------------------------------------------------------------

def fd_jacobian(sys_, x, h=1e-7):
    d = sys_.dim
    J = np.empty((d, d), dtype=complex)
    for j in range(d):
        xp, xm = np.array(x, complex), np.array(x, complex)
        xp[j] += h
        xm[j] -= h
        for i, p in enumerate(sys_.polys):
            J[i, j] = (mp_eval(p, xp) - mp_eval(p, xm)) / (2 * h)
    return J


def test_jacobian_matches_fd(cheb):
    rng = np.random.default_rng(23)
    polys = tuple(random_poly(rng, cheb, 3, (2, 2, 2)) for _ in range(3))
    sys_ = PolynomialSystem(polys)
    x = rng.uniform(-0.8, 0.8, 3)
    assert np.allclose(jacobian(sys_, x), fd_jacobian(sys_, x), atol=1e-6)


def test_jacobian_matches_fd_legendre_d4():
    leg = DegreeGradedBasis.legendre()
    rng = np.random.default_rng(24)
    polys = tuple(random_poly(rng, leg, 4, (2, 3, 1, 2)) for _ in range(4))
    sys_ = PolynomialSystem(polys)
    x = rng.uniform(-0.8, 0.8, 4)
    assert np.allclose(jacobian(sys_, x), fd_jacobian(sys_, x), atol=1e-6)


def test_jacobian_linear_exact(mono):
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    polys = []
    for i in range(2):
        c = np.zeros((2, 2), dtype=complex)
        c[1, 0], c[0, 1] = A[i, 0], A[i, 1]
        polys.append(MultiPoly(mono, 2, c))
    sys_ = PolynomialSystem(tuple(polys))
    assert np.allclose(jacobian(sys_, [0.3, -0.4]), A, atol=1e-14)


def fiber_jacobian(sys_, x):
    """Loop reference: contract every axis but j, then differentiate the
    remaining univariate fiber with the Clenshaw shifts."""
    d = sys_.dim
    J = np.empty((d, d), dtype=complex)
    for i, p in enumerate(sys_.polys):
        for j in range(d):
            fiber = np.moveaxis(p.coeffs, j, 0)
            for a in reversed(range(d)):
                if a != j:
                    fiber = fiber @ basis_eval_all(p.basis,
                                                   p.coeffs.shape[a] - 1, x[a])
            J[i, j] = derivative_eval(p.basis, fiber, x[j])
    return J


def _system(rng, basis, shapes_deg):
    d = len(shapes_deg)
    return PolynomialSystem(tuple(random_poly(rng, basis, d, degs)
                                  for degs in shapes_deg))


@pytest.mark.parametrize("case", ["mixed", "equal_noncubic", "d1",
                                  "legendre_d4", "disc"])
def test_eval_with_jacobian_against_references(case):
    rng = np.random.default_rng(41)
    leg = DegreeGradedBasis.legendre()
    if case == "mixed":  # zero-padded stack: extents (3, 4) from (3,2), (2,4)
        sys_ = _system(rng, DegreeGradedBasis.chebyshev(), [(2, 1), (1, 3)])
    elif case == "equal_noncubic":
        sys_ = _system(rng, leg, [(2, 1), (2, 1)])
    elif case == "d1":
        sys_ = _system(rng, DegreeGradedBasis.monomial(), [(5,)])
    elif case == "legendre_d4":
        sys_ = _system(rng, leg, [(2, 3, 1, 2), (1, 1, 1, 1), (3, 2, 2, 0),
                                  (2, 2, 2, 2)])
    else:
        disc = DegreeGradedBasis.legendre(domain=Domain.disc(0.2j, 0.8))
        sys_ = _system(rng, disc, [(3, 2, 1), (2, 2, 2), (1, 3, 2)])
    d = sys_.dim
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, d)
        if case == "disc":
            x = 0.2j + 0.5 * (x + 1j * rng.uniform(-0.8, 0.8, d))
        F, J = eval_with_jacobian(sys_, x)
        assert F.shape == (d,) and J.shape == (d, d)
        want = np.array([mp_eval(p, x) for p in sys_.polys])
        assert np.all(np.abs(F - want) <= 1e-13 * np.maximum(1, abs(want)))
        assert np.allclose(J, fd_jacobian(sys_, x), atol=1e-6)
        ref = fiber_jacobian(sys_, x)
        assert np.all(np.abs(J - ref) <= 1e-12 * np.maximum(1, abs(ref)))
        assert np.array_equal(jacobian(sys_, x), J)


def dense_gamma_basis():
    """Degree-5 custom basis with every gamma entry set and nonzero beta."""
    rng = np.random.default_rng(17)
    gamma = [list(0.2 * rng.standard_normal(k)) for k in range(1, 5)]
    return DegreeGradedBasis.custom(1.0 + 0.1 * rng.standard_normal(5),
                                    0.1 * rng.standard_normal(5), gamma,
                                    check_normalization=False)


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom", "disc"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batched_eval_with_jacobian_matches_points(name, d):
    rng = np.random.default_rng(d)
    if name == "custom":
        basis = dense_gamma_basis()
    elif name == "disc":
        basis = DegreeGradedBasis.legendre(domain=Domain.disc(0.2j, 0.8))
    else:
        basis = DegreeGradedBasis(name)
    # mixed degrees, so the stacked tensor is zero-padded
    sys_ = _system(rng, basis, [tuple(rng.integers(0, 4 - d // 2, d))
                                for _ in range(d)])
    x = rng.uniform(-0.8, 0.8, (7, d)) + 1j * rng.uniform(-0.8, 0.8, (7, d))
    F, J = eval_with_jacobian(sys_, x)
    assert F.shape == (7, d) and J.shape == (7, d, d)
    for k in range(7):
        f, j = eval_with_jacobian(sys_, x[k])
        assert np.max(np.abs(F[k] - f)) <= 1e-14 * np.max(np.abs(f))
        assert np.max(np.abs(J[k] - j)) <= 1e-14 * np.max(np.abs(j))


def test_eval_with_jacobian_validates_point(mono):
    with pytest.raises(ValueError):
        eval_with_jacobian(circle_line(mono), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        eval_with_jacobian(circle_line(mono), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        eval_with_jacobian(circle_line(mono), np.zeros((4, 2, 1)))


def test_root_condition_inverse_smallest_singular(mono):
    sys_ = circle_line(mono)
    x = np.array([0.5, 0.5])
    J = jacobian(sys_, x)
    want = 1.0 / np.linalg.svd(J, compute_uv=False)[-1]
    assert root_condition(sys_, x) == pytest.approx(want)


def test_stacked_root_conditions_match_root_condition(mono):
    sys_ = circle_line(mono)
    # the Jacobian [[2x, 2y], [1, -1]] is singular on x = -y: exactly at
    # the fourth point, to roundoff at the fifth
    x = np.array([[0.5, 0.5], [0.1, -0.7], [2.0, 1.0], [0.3, -0.3],
                  [0.3, -0.3 + 3e-15]])
    rc = _root_conditions(eval_with_jacobian(sys_, x)[1])
    assert rc[3] == rc[4] == np.inf
    for k in range(3):
        assert rc[k] == root_condition(sys_, x[k])
    for k in (3, 4):
        with pytest.raises(NonSimpleRootError):
            root_condition(sys_, x[k])


def test_root_condition_singular_raises(mono):
    # p1 = x^2 + y^2, p2 = x*y has a non-simple root at the origin
    c1 = np.zeros((3, 3), dtype=complex)
    c1[2, 0], c1[0, 2] = 1.0, 1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 1] = 1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    with pytest.raises(NonSimpleRootError):
        root_condition(sys_, [0.0, 0.0])


def test_max_solution_bound(mono):
    sys_ = circle_line(mono)
    assert max_solution_bound(sys_) == 2 * 2 ** 2  # d! * n^d


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_system_json_roundtrip(mono):
    sys_ = circle_line(mono)
    obj = json.loads(json.dumps(system_to_json(sys_)))
    again = system_from_json(obj)
    assert again.dim == 2 and again.basis == mono
    for a, b in zip(sys_.polys, again.polys):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_system_json_complex_and_domain(cheb):
    dom = Domain.interval(-2, 2)
    basis = DegreeGradedBasis.chebyshev(dom)
    c = np.array([[1.0 + 2.0j, 0.0], [0.5, -1.0j]])
    p = MultiPoly(basis, 2, c)
    sys_ = PolynomialSystem((p, p))
    again = system_from_json(system_to_json(sys_))
    assert again.domain == dom
    assert np.array_equal(again.polys[0].coeffs, c)


def test_system_json_validation():
    with pytest.raises(ValueError):
        system_from_json({"dim": 2, "polys": []})
    with pytest.raises(ValueError):
        system_from_json({"basis": "monomial", "dim": 2, "polys": []})
    with pytest.raises(ValueError):
        system_from_json({"basis": "monomial", "dim": 2, "polys": [
            {"degrees": [1, 1], "coeffs_real": [1.0, 2.0]}]})  # wrong count

"""Multivariate evaluation, interpolation and Jacobians against naive
reference implementations."""

import itertools
import json
import warnings

import numpy as np
import pytest

from resultant_lab.basis import (DegreeGradedBasis, Domain,
                                 NormalizationWarning, basis_eval_all,
                                 derivative_eval)
from resultant_lab import cayley, rootfinder
from resultant_lab.multipoly import (HiddenVariableForm, MultiPoly,
                                     PolynomialSystem, _contract_leading,
                                     _jacobian_and_table, _root_conditions,
                                     _stacked,
                                     _vandermonde_inverse,
                                     eval_with_jacobian, hide_variable,
                                     mp_eval, mp_interpolate,
                                     system_from_json, system_to_json)
from resultant_lab.rootfinder import solve_system
from resultant_lab.sylvester import sylvester_degrees, sylvester_resultant
from conftest import circle_line, dense_gamma_basis, naive_eval, report_fields


def random_poly(rng, basis, dim, degrees):
    shape = tuple(n + 1 for n in degrees)
    return MultiPoly(basis, dim, rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))


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


@pytest.mark.parametrize("shape,extents,axes", [
    ((3, 4), (2, 5), None),                 # every axis contracted
    ((3, 1, 4, 2, 5), (2, 3, 1), None),     # extent one, carried axes
    ((4, 3, 2), (3, 2), (2, 0, 1)),         # transposed view
    ((2, 5, 3, 4), (1, 2), (3, 1, 0, 2)),   # transposed, carried axes
])
def test_contract_leading_matches_einsum(shape, extents, axes):
    rng = np.random.default_rng(sum(shape))
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if axes is not None:
        t = t.transpose(axes)
        assert not t.flags.c_contiguous
    mats = [rng.standard_normal((e, m)) + 1j * rng.standard_normal((e, m))
            for e, m in zip(t.shape, extents)]
    k = len(mats)
    operands = [t, list(range(t.ndim))]
    for a, m in enumerate(mats):
        operands += [m, [a, t.ndim + a]]
    want = np.einsum(*operands, list(range(k, t.ndim + k)))
    got = _contract_leading(t, mats)
    assert got.shape == t.shape[k:] + tuple(extents)
    assert np.allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def test_eval_input_validation(mono):
    p = MultiPoly(mono, 2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        mp_eval(p, [1.0])
    with pytest.raises(ValueError):
        MultiPoly(mono, 2, np.ones((2,)))
    with pytest.raises(ValueError, match=r"shape \(0, 2\) has an axis of "
                       "extent 0"):
        MultiPoly(mono, 2, np.ones((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_coefficients_rejected(mono, bad):
    c = np.ones((2, 3), dtype=complex)
    c[1, 2] = bad
    with pytest.raises(ValueError, match=r"non-finite .*\(1, 2\)"):
        MultiPoly(mono, 2, c)


# ----------------------------------------------------------------------
# Interpolation
# ----------------------------------------------------------------------

def grid_samples(p):
    """p at every point of the standard tensor grid, one mp_eval each."""
    nodes = [p.basis.domain.nodes(n + 1) for n in p.degrees]
    return np.array([mp_eval(p, x) for x in itertools.product(*nodes)]
                    ).reshape(p.coeffs.shape)


def test_interpolation_roundtrip(cheb):
    rng = np.random.default_rng(8)
    p = random_poly(rng, cheb, 2, (3, 2))
    q = mp_interpolate(cheb, 2, (3, 2), grid_samples(p))
    assert np.allclose(q.coeffs, p.coeffs, atol=1e-12)


def test_mp_interpolate_recovers(mono):
    rng = np.random.default_rng(15)
    p = random_poly(rng, mono, 3, (2, 2, 1))
    q = mp_interpolate(mono, 3, (2, 2, 1), grid_samples(p))
    assert np.allclose(q.coeffs, p.coeffs, atol=1e-12)


def test_interpolation_validation(mono):
    with pytest.raises(ValueError, match="does not match degrees"):
        mp_interpolate(mono, 2, (1, 1), np.ones((2, 3)))


def solve_interpolate(basis, nodes_list, samples):
    """Reference: one np.linalg.solve per axis, every other axis flattened
    into the right-hand sides."""
    t = np.asarray(samples, dtype=complex)
    for axis, nodes in enumerate(nodes_list):
        vand = basis_eval_all(basis, len(nodes) - 1, nodes).T
        tm = np.moveaxis(t, axis, 0)
        sol = np.linalg.solve(vand, tm.reshape(tm.shape[0], -1))
        t = np.moveaxis(sol.reshape(tm.shape), 0, axis)
    return t


@pytest.mark.parametrize("name,domain,sizes,trailing", [
    ("chebyshev", None, (4, 3), (2,)),
    ("monomial", None, (17,), (5,)),
    ("legendre", None, (3, 5, 2), ()),
    ("monomial", Domain.disc(0.2 + 0.1j, 1.5), (8, 5), (3,)),
    ("chebyshev", Domain.disc(0.0, 2.0), (6, 1, 4), (2, 2))])
def test_interpolation_matches_solve_reference(name, domain, sizes,
                                               trailing):
    basis = DegreeGradedBasis(name, domain=domain)
    rng = np.random.default_rng(len(sizes) + sum(sizes))
    nodes = [basis.domain.nodes(m) for m in sizes]
    shape = sizes + trailing
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = solve_interpolate(basis, nodes, samples)
    # mp_interpolate takes one function: interpolate each trailing slice
    degrees = tuple(m - 1 for m in sizes)
    got = np.empty(shape, dtype=complex)
    for idx in np.ndindex(trailing):
        got[(...,) + idx] = mp_interpolate(basis, len(sizes), degrees,
                                           samples[(...,) + idx]).coeffs
    # the inverse and the LU solve agree to the conditioning of the grid
    cond = np.prod([np.linalg.cond(basis_eval_all(basis, len(x) - 1, x))
                    for x in nodes])
    tol = 16 * np.finfo(float).eps * cond * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= tol


def test_interpolation_errors_unchanged(mono):
    # the repeated-node check runs on every call: a valid node set of
    # the same basis does not let repeated ones through
    for _ in range(3):
        _vandermonde_inverse(mono, [2.0, 3.0])
        with pytest.raises(ValueError,
                           match="interpolation nodes must be distinct"):
            _vandermonde_inverse(mono, [2.0, 2.0])


# ----------------------------------------------------------------------
# System container and hidden-variable rewrite
# ----------------------------------------------------------------------

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


# Extents of the polynomials of each padded system, every one at least
# two: a per-polynomial product on an axis of extent one is a
# matrix-vector product, whose rounding can differ from the stacked one.
PADDED_SHAPES = [((3, 2), (2, 4)), ((2, 5), (4, 3)), ((5, 5), (2, 2)),
                 ((3, 4, 2), (2, 2, 4), (4, 3, 3)),
                 ((2, 2, 2), (3, 2, 2), (2, 2, 3))]


def padded_systems():
    """Systems whose stacks pad, in three bases; in the first, a real
    polynomial meets a complex one.  The last is affine in every pair of
    its variables inside extents up to three."""
    rng = np.random.default_rng(41)
    for basis_name in ("monomial", "chebyshev", "legendre"):
        basis = DegreeGradedBasis(basis_name)
        for k, shapes in enumerate(PADDED_SHAPES):
            coeffs = [rng.standard_normal(shape) for shape in shapes]
            if k == 0:
                coeffs[1] = coeffs[1] + 1j * rng.standard_normal(shapes[1])
            if k == len(PADDED_SHAPES) - 1:
                for c in coeffs:
                    c[np.indices(c.shape).sum(axis=0) >= 2] = 0.0
            yield PolynomialSystem(tuple(MultiPoly(basis, len(shapes), c)
                                         for c in coeffs))


def per_polynomial_tensors(sys_, hidden):
    """Each polynomial's coefficients with the hidden axis moved last."""
    return [np.moveaxis(p.coeffs, hidden, -1).copy() for p in sys_.polys]


def per_polynomial_total_degree_one(tensors):
    for t in tensors:
        weight = np.indices(t.shape[:-1]).sum(axis=0)
        if np.any(t[weight >= 2] != 0):
            return False
    return True


def per_polynomial_sylvester(hv, tensors):
    """(taus, coefficient matrices) of the Sylvester construction built
    polynomial by polynomial: each kept-variable degree from its own
    tensor, and each q_c sampled on the grid with its own extents."""
    taus = [int(np.nonzero(np.any(t != 0, axis=-1))[0].max())
            for t in tensors]
    n, basis = sum(taus), hv.basis
    kept = basis.domain.nodes(n)
    hidden = basis.domain.nodes(max(t.shape[-1] for t in tensors))
    q1, q2 = (_contract_leading(t, [basis_eval_all(basis, e - 1, x)
                                    for e, x in zip(t.shape, (kept, hidden))])
              for t in tensors)
    phis = basis_eval_all(basis, n - 1, kept).T
    samples = np.concatenate([phis[:, None, :taus[1]] * q1[:, :, None],
                              phis[:, None, :taus[0]] * q2[:, :, None]],
                             axis=2)
    coeffs = _contract_leading(samples, [
        _vandermonde_inverse(basis, x).T for x in (kept, hidden)])
    return tuple(taus), np.ascontiguousarray(coeffs.transpose(2, 0, 1))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


def test_padded_stack_matches_per_polynomial_tensors(monkeypatch):
    # the constructions and the sub-solve read one zero-padded stack with
    # the hidden axis as an index; polynomial by polynomial, on each
    # one's own extents, they give the same bits
    frozen = []
    freeze = HiddenVariableForm._freeze

    def recorded(hv, phis):
        frozen.append(freeze(hv, phis))
        return frozen[-1]

    monkeypatch.setattr(HiddenVariableForm, "_freeze", recorded)
    same_terms = terms = 0
    for sys_ in padded_systems():
        d = sys_.dim
        for hidden in range(d):
            hv = hide_variable(sys_, hidden)
            tensors = per_polynomial_tensors(sys_, hidden)
            assert same_bits(hv.coeffs, _stacked(tensors))
            assert not hv.coeffs.flags.writeable
            assert np.shares_memory(hv.coeffs, hv._stack)
            assert (cayley._is_total_degree_one(hv)
                    == per_polynomial_total_degree_one(tensors))
            s_sets, t_sets, phis, inverses = cayley._plan(
                hv.basis, hv.coeffs.shape[1:], cayley.default_taus(hv))
            want = _contract_leading(cayley._grid_values(
                _stacked(tensors), s_sets, t_sets, phis), inverses)
            got = cayley.cayley_resultant(hv).matrix_poly.coeffs
            assert same_bits(got, want.reshape(got.shape))
            if d == 2:
                taus, want = per_polynomial_sylvester(hv, tensors)
                res = sylvester_resultant(hv)
                assert sylvester_degrees(hv) == taus
                assert same_bits(res.matrix_poly.coeffs, want)
            # the sub-solve's frozen polynomials are the q_at, padded
            # with zeros; where a polynomial's hidden extent and dtype
            # are the stack's, its products run over the same terms in
            # the same arithmetic
            lam = 0.3
            frozen.clear()
            rootfinder._subsolve(hv, lam)
            q = frozen[0]
            for c, t in enumerate(tensors):
                terms += 1
                want = hv.q_at(c, lam).coeffs
                own = tuple(slice(e) for e in want.shape)
                got = q[c][own]
                pad = np.ones(q.shape[1:], dtype=bool)
                pad[own] = False
                assert not q[c][pad].any()
                if (t.shape[-1], t.dtype) == (hv.coeffs.shape[-1], q.dtype):
                    assert same_bits(got, want.astype(got.dtype))
                    same_terms += 1
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-14,
                                               atol=1e-14)
    assert 0 < same_terms < terms


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
    assert np.allclose(eval_with_jacobian(sys_, x)[1], fd_jacobian(sys_, x),
                       atol=1e-6)


def test_jacobian_matches_fd_legendre_d4():
    leg = DegreeGradedBasis.legendre()
    rng = np.random.default_rng(24)
    polys = tuple(random_poly(rng, leg, 4, (2, 3, 1, 2)) for _ in range(4))
    sys_ = PolynomialSystem(polys)
    x = rng.uniform(-0.8, 0.8, 4)
    assert np.allclose(eval_with_jacobian(sys_, x)[1], fd_jacobian(sys_, x),
                       atol=1e-6)


def test_jacobian_linear_exact(mono):
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    polys = []
    for i in range(2):
        c = np.zeros((2, 2), dtype=complex)
        c[1, 0], c[0, 1] = A[i, 0], A[i, 1]
        polys.append(MultiPoly(mono, 2, c))
    sys_ = PolynomialSystem(tuple(polys))
    assert np.allclose(eval_with_jacobian(sys_, [0.3, -0.4])[1], A,
                       atol=1e-14)


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


@pytest.mark.parametrize("name", ["chebyshev", "legendre", "custom", "disc"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("arithmetic", ["real", "complex"])
def test_kernel_rows_do_not_depend_on_the_other_rows(name, d, arithmetic):
    # the rows of _jacobian_and_table at a point are the same bits
    # whether the point is evaluated alone, with others, or in another
    # order: its einsum contractions do not mix rows
    rng = np.random.default_rng(10 + d)
    if name == "custom":
        basis = dense_gamma_basis()
    elif name == "disc":
        basis = DegreeGradedBasis.legendre(domain=Domain.disc(0.2j, 0.8))
    else:
        basis = DegreeGradedBasis(name)
    # mixed degrees, so the stacked tensor is zero-padded
    stack = _stacked([rng.standard_normal(rng.integers(2, 6 - d // 2, d))
                      for _ in range(d)])
    x = rng.uniform(-0.8, 0.8, (9, d))
    if arithmetic == "complex":
        stack = stack + 1j * rng.standard_normal(stack.shape)
        x = x + 1j * rng.uniform(-0.8, 0.8, (9, d))
    kmax = 6

    def rows(pts):
        table, F, J = _jacobian_and_table(basis, stack, pts, kmax)
        return [(table[:, :, k].tobytes(), F[k].tobytes(), J[k].tobytes())
                for k in range(len(pts))]

    full = rows(x)
    perm = rng.permutation(len(x))
    assert rows(x[perm]) == [full[k] for k in perm]
    assert rows(x[2:5]) == full[2:5]
    assert [rows(x[k:k + 1])[0] for k in range(len(x))] == full


def test_eval_with_jacobian_validates_point(mono):
    with pytest.raises(ValueError):
        eval_with_jacobian(circle_line(mono), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        eval_with_jacobian(circle_line(mono), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        eval_with_jacobian(circle_line(mono), np.zeros((4, 2, 1)))


def root_condition(J):
    """Reference ||J^-1||_2 of one Jacobian from its inverse."""
    return np.linalg.norm(np.linalg.inv(J), 2)


def test_root_condition_inverse_smallest_singular(mono):
    sys_ = circle_line(mono)
    J = eval_with_jacobian(sys_, [0.5, 0.5])[1]
    want = 1.0 / np.linalg.svd(J, compute_uv=False)[-1]
    assert _root_conditions(J) == pytest.approx(want, rel=1e-14)
    assert _root_conditions(J) == pytest.approx(root_condition(J), rel=1e-12)


def test_stacked_root_conditions_match_root_condition(mono):
    sys_ = circle_line(mono)
    # the Jacobian [[2x, 2y], [1, -1]] is singular on x = -y: exactly at
    # the fourth point, to roundoff at the fifth
    x = np.array([[0.5, 0.5], [0.1, -0.7], [2.0, 1.0], [0.3, -0.3],
                  [0.3, -0.3 + 3e-15]])
    J = eval_with_jacobian(sys_, x)[1]
    rc = _root_conditions(J)
    assert rc[3] == rc[4] == np.inf
    for k in range(3):
        assert rc[k] == pytest.approx(root_condition(J[k]), rel=1e-12)


def test_root_condition_singular_is_inf(mono):
    # p1 = x^2 + y^2, p2 = x*y has a non-simple root at the origin
    c1 = np.zeros((3, 3), dtype=complex)
    c1[2, 0], c1[0, 2] = 1.0, 1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 1] = 1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    assert _root_conditions(eval_with_jacobian(sys_, [0.0, 0.0])[1]) == np.inf


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
    for degrees, coeffs in (([-1, 1], []), ([1, -2], [1.0, 2.0])):
        with pytest.raises(ValueError, match="negative degree"):
            system_from_json({"basis": "monomial", "dim": 2, "polys": [
                {"degrees": degrees, "coeffs_real": coeffs}]})


def test_huge_coefficient_is_rejected_by_name():
    # 1 followed by 400 zeros is a JSON number that no float holds
    obj = {"basis": "monomial", "dim": 2, "polys": [
        {"degrees": [1, 1], "coeffs_real": [0.0, 1.0, 10 ** 400, 0.0]}]}
    with pytest.raises(ValueError) as exc:
        system_from_json(obj)
    assert str(exc.value) == ("polys[0].coeffs_real[2] must be a number, "
                              "got 100000... (401 digits, too large for a "
                              "float)")


def _two_polys_json(basis, domain=None):
    obj = {"basis": basis, "dim": 2,
           "polys": [{"degrees": [1, 1], "coeffs_real": [1.0, 2.0, 3.0, 4.0]},
                     {"degrees": [1, 0], "coeffs_real": [1.0, -1.0]}]}
    if domain is not None:
        obj["domain"] = domain
    return obj


def test_system_json_domain_overrides_custom_basis():
    # Chebyshev shifted to [0, 2]: T_1 = x - 1, T_{k+1} = 2(x - 1) T_k - T_{k-1}
    m = 6
    shifted = {"name": "custom", "alpha": [1.0] + [2.0] * (m - 1),
               "beta": [-1.0] + [-2.0] * (m - 1),
               "gamma": [[0.0] * (k - 1) + [-1.0] for k in range(1, m)]}
    with warnings.catch_warnings():
        # normalized on [0, 2], so building it there alone must not warn
        warnings.simplefilter("error", NormalizationWarning)
        sys_ = system_from_json(_two_polys_json(shifted,
                                                {"interval": [0, 2]}))
    assert sys_.domain == sys_.basis.domain == Domain.interval(0, 2)
    xs = np.linspace(0, 2, 7)
    assert np.allclose(basis_eval_all(sys_.basis, m - 1, xs),
                       basis_eval_all(DegreeGradedBasis.chebyshev(), m - 1,
                                      xs - 1), atol=1e-13)
    # the override wins over a domain carried by the basis itself
    inner = dict(shifted, domain={"interval": [-1, 1]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", NormalizationWarning)
        again = system_from_json(_two_polys_json(inner, {"interval": [0, 2]}))
    assert again.basis == sys_.basis


@pytest.mark.parametrize("basis", [
    "legendre", {"name": "legendre"},
    {"name": "legendre", "domain": {"interval": [-1, 1]}}])
def test_system_json_domain_overrides_builtin_basis(basis):
    disc = Domain.disc(0.5j, 2.0)
    sys_ = system_from_json(_two_polys_json(basis, disc.to_json()))
    assert sys_.domain == sys_.basis.domain == disc
    assert sys_.basis == DegreeGradedBasis.legendre(disc)
    # without an override the basis keeps its own domain
    plain = system_from_json(_two_polys_json(basis))
    assert plain.domain == plain.basis.domain == Domain.interval(-1, 1)


# Chebyshev's recurrence as a custom table, long enough for the Cayley
# grid of circle_line
_CUSTOM_CHEBYSHEV = {"name": "custom", "alpha": [1.0] + [2.0] * 5,
                     "beta": [0.0] * 6,
                     "gamma": [[0.0] * (k - 1) + [-1.0] for k in range(1, 6)]}


@pytest.mark.parametrize("basis", [
    "chebyshev",
    {"name": "legendre", "domain": {"interval": [-0.5, 1.5]}},
    {"name": "monomial",
     "domain": {"disc": {"center": [0.1, -0.2], "radius": 1.5}}},
    _CUSTOM_CHEBYSHEV], ids=["string", "object", "disc", "custom"])
@pytest.mark.parametrize("domain", [None, {"interval": [-0.5, 1.5]}],
                         ids=["own-domain", "top-level-domain"])
def test_system_json_round_trip_keeps_the_basis(basis, domain):
    # a system's domain is its basis's, so the system that
    # system_to_json writes reads back with an equal basis and solves
    # to an equal report
    obj = system_to_json(circle_line(DegreeGradedBasis.monomial()))
    obj["basis"] = basis
    del obj["domain"]
    if domain is not None:
        obj["domain"] = domain
    with warnings.catch_warnings():
        # the custom table is normalized on [-1, 1] only
        warnings.simplefilter("ignore", NormalizationWarning)
        sys_ = system_from_json(obj)
        again = system_from_json(json.loads(json.dumps(system_to_json(sys_))))
    assert again.basis == sys_.basis
    assert again.domain == sys_.domain == sys_.basis.domain
    assert report_fields(solve_system(again)) == report_fields(
        solve_system(sys_))
    with pytest.raises(TypeError):
        PolynomialSystem(sys_.polys, sys_.domain)


@pytest.mark.parametrize("call,match", [
    (lambda: MultiPoly(DegreeGradedBasis.monomial(), 0, np.array(1.0)),
     "dim must be at least 1"),
    (lambda: PolynomialSystem(()), "at least one polynomial"),
    (lambda: mp_interpolate(DegreeGradedBasis.monomial(), 2, (1,),
                            np.ones(2)), "one degree per variable"),
    (lambda: system_from_json({"basis": "monomial", "dim": 2, "polys": [
        {"degrees": [1], "coeffs_real": [1.0, 2.0]}]}),
     "degrees do not match dim"),
    (lambda: system_from_json({"basis": "monomial", "dim": 1, "polys": [
        {"degrees": [1], "coeffs_real": [1.0, 2.0], "coeffs_imag": [0.0]}]}),
     "coeffs_imag length mismatch"),
], ids=["dim-zero", "no-polys", "interp-degrees", "json-degrees",
        "json-imag"])
def test_input_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()

"""Backward-recurrence evaluation against independent oracles."""

import numpy as np
import pytest
import warnings
from hypothesis import given, settings, strategies as st

from resultant_lab.basis import (ClenshawTrace, DegreeGradedBasis,
                                 DegreeOverflowError, Domain,
                                 NormalizationWarning, _builtin_table,
                                 _value_derivative_table, basis_eval_all,
                                 basis_from_json,
                                 basis_to_json, clenshaw_eval, clenshaw_shifts,
                                 derivative_eval, divided_difference)
from conftest import (PLAN_CACHES, custom_basis, plan_args,
                      two_loop_eval_deriv)


def horner(coeffs, x):
    """Reference Horner evaluation with the exact operation order."""
    h = coeffs[-1]
    for a in coeffs[-2::-1]:
        h = a + x * h
    return h


def forward_sum(basis, coeffs, x):
    """sum a_k phi_k(x) with phi from the forward recurrence."""
    phis = basis_eval_all(basis, len(coeffs) - 1, complex(x))
    return np.sum(np.asarray(coeffs, dtype=complex) * phis)


# ----------------------------------------------------------------------
# Forward recurrence
# ----------------------------------------------------------------------

def test_chebyshev_matches_numpy():
    b = DegreeGradedBasis.chebyshev()
    xs = np.linspace(-1, 1, 17)
    table = basis_eval_all(b, 8, xs)
    for k in range(9):
        unit = np.zeros(k + 1)
        unit[k] = 1.0
        want = np.polynomial.chebyshev.chebval(xs, unit)
        assert np.allclose(table[k], want, atol=1e-13)
    # past the first cached table length, with a NumPy integer degree
    high = basis_eval_all(b, np.int64(40), xs)
    assert np.allclose(high[40], np.cos(40 * np.arccos(xs)), atol=1e-12)


def test_legendre_matches_numpy():
    b = DegreeGradedBasis.legendre()
    xs = np.linspace(-1, 1, 17)
    table = basis_eval_all(b, 8, xs)
    for k in range(9):
        unit = np.zeros(k + 1)
        unit[k] = 1.0
        want = np.polynomial.legendre.legval(xs, unit)
        assert np.allclose(table[k], want, atol=1e-13)


def test_monomial_powers():
    b = DegreeGradedBasis.monomial()
    x = 0.73
    assert np.allclose(basis_eval_all(b, 6, x), [x ** k for k in range(7)])


def test_basis_eval_single():
    b = DegreeGradedBasis.chebyshev()
    vals = basis_eval_all(b, 3, 0.5)
    assert vals.shape == (4,)
    assert vals[3] == pytest.approx(
        np.polynomial.chebyshev.chebval(0.5, [0, 0, 0, 1]))


# ----------------------------------------------------------------------
# Clenshaw evaluation
# ----------------------------------------------------------------------

def test_monomial_clenshaw_is_horner_bitwise():
    rng = np.random.default_rng(11)
    b = DegreeGradedBasis.monomial()
    for _ in range(25):
        n = rng.integers(1, 12)
        coeffs = rng.standard_normal(n + 1) + 0j
        x = complex(rng.standard_normal())
        got = clenshaw_eval(b, coeffs, x).value
        assert got == horner(coeffs, x)


@pytest.mark.parametrize("name,oracle", [
    ("chebyshev", np.polynomial.chebyshev.chebval),
    ("legendre", np.polynomial.legendre.legval),
])
def test_clenshaw_against_numpy(name, oracle):
    rng = np.random.default_rng(7)
    b = DegreeGradedBasis(name)
    for _ in range(50):
        n = rng.integers(0, 15)
        coeffs = rng.standard_normal(n + 1)
        x = rng.uniform(-1, 1)
        got = clenshaw_eval(b, coeffs, x).value
        tol = 1e-12 * (1.0 + np.sum(np.abs(coeffs)))
        assert abs(got - oracle(x, coeffs)) <= tol


def test_clenshaw_matches_forward_sum(builtin):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(0, 10)
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        x = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
        got = clenshaw_eval(builtin, coeffs, x).value
        want = forward_sum(builtin, coeffs, x)
        assert abs(got - want) <= 1e-12 * (1.0 + np.sum(np.abs(coeffs)))


def dense_shifts(basis, coeffs, x):
    """b_1..b_{n+1} from the full recurrence over every gamma_{j,k+1}."""
    n = len(coeffs) - 1
    b = np.zeros(n + 2, dtype=complex)
    for k in range(n, 0, -1):
        t = coeffs[k] + (basis.alpha(k) * x + basis.beta(k)) * b[k + 1]
        for j in range(k + 1, n):
            t = t + basis.gamma(j, k + 1) * b[j + 1]
        b[k] = t
    return b[1:]


def test_banded_and_full_paths_agree(builtin):
    # The table-driven recurrence adds only the nonzero (banded) gamma
    # terms; the full recurrence written out above adds all of them.
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(9)
    x = 0.41
    fast = clenshaw_shifts(builtin, coeffs, x)
    slow = dense_shifts(builtin, coeffs, x)
    assert np.allclose(fast, slow, atol=1e-13)


def test_zero_padding_invariance(builtin):
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(5)
    padded = np.concatenate([coeffs, [0, 0, 0]])
    x = 0.3
    assert abs(clenshaw_eval(builtin, coeffs, x).value
               - clenshaw_eval(builtin, padded, x).value) <= 1e-13
    # earlier shifts b_1..b_5 survive padding
    assert np.allclose(clenshaw_shifts(builtin, coeffs, x),
                       clenshaw_shifts(builtin, padded, x)[:5],
                       rtol=0, atol=1e-13)


def test_trace_layout():
    b = DegreeGradedBasis.monomial()
    tr = clenshaw_eval(b, [5.0, 4.0, 3.0], 2.0)
    assert isinstance(tr, ClenshawTrace)
    # b_3 = 0, b_2 = 3, b_1 = 4 + 2*3 = 10, p = 5 + 2*10 = 25
    assert tr.shifts.tolist() == [0, 3, 10]
    assert clenshaw_shifts(b, [5.0, 4.0, 3.0], 2.0).tolist() == [10, 3, 0]
    assert tr.value == 25


def test_clenshaw_shifts_with_matrix_coefficients():
    b = DegreeGradedBasis.chebyshev()
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((4, 3, 3))
    x = 0.6
    got = clenshaw_shifts(b, stack, x)
    for i in range(3):
        for j in range(3):
            want = clenshaw_shifts(b, stack[:, i, j], x)
            assert np.allclose(got[:, i, j], want)


def test_zero_padded_columns_keep_their_own_shifts(builtin):
    # the Sylvester left vector takes the shifts of both polynomials from
    # one recurrence over their coefficients, zero-padded to the higher
    # degree, at one point per column: each column's shifts are those of
    # its own call, exactly (zero padding adds only zeros)
    rng = np.random.default_rng(4)
    for x in (rng.uniform(-1, 1, 5),
              rng.uniform(-1, 1, 5) + 0.2j * rng.uniform(-1, 1, 5)):
        short, full = rng.standard_normal((3, 5)), rng.standard_normal((6, 5))
        stack = np.zeros((6, 2, 5))
        stack[:3, 0], stack[:, 1] = short, full
        got = clenshaw_shifts(builtin, stack, x)
        assert np.array_equal(got[:3, 0], clenshaw_shifts(builtin, short, x))
        assert np.array_equal(got[:, 1], clenshaw_shifts(builtin, full, x))


def test_shift_recurrence_identity(builtin):
    # shifts of phi_{n+1} relate to shifts of phi_n, ..., applied to unit
    # coefficient vectors
    x = 0.37
    for n in range(1, 7):
        e_next = np.zeros(n + 2)
        e_next[n + 1] = 1.0
        lhs = clenshaw_shifts(builtin, e_next, x)
        e_n = np.zeros(n + 1)
        e_n[n] = 1.0
        b_n = clenshaw_shifts(builtin, e_n, x)
        for j in range(1, n + 1):
            acc = (builtin.alpha(n) * x + builtin.beta(n)) * b_n[j - 1]
            for s2 in range(j + 1, n + 1):
                g = builtin.gamma(n, s2)
                if g != 0:
                    e_s = np.zeros(s2)
                    e_s[s2 - 1] = 1.0
                    acc += g * clenshaw_shifts(builtin, e_s, x)[j - 1]
            assert abs(lhs[j - 1] - acc) <= 1e-12 * (1 + abs(acc))


# ----------------------------------------------------------------------
# Divided differences and derivatives
# ----------------------------------------------------------------------

def test_divided_difference_exact(builtin):
    rng = np.random.default_rng(13)
    coeffs = rng.standard_normal(7)
    x, y = 0.3, -0.52
    got = divided_difference(builtin, coeffs, x, y)
    px = clenshaw_eval(builtin, coeffs, x).value
    py = clenshaw_eval(builtin, coeffs, y).value
    assert abs(got - (px - py) / (x - y)) <= 1e-11


def test_derivative_matches_finite_difference(builtin):
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal(8)
    x = 0.21
    h = 1e-6
    fd = (clenshaw_eval(builtin, coeffs, x + h).value
          - clenshaw_eval(builtin, coeffs, x - h).value) / (2 * h)
    assert abs(derivative_eval(builtin, coeffs, x) - fd) <= 1e-7


def test_derivative_constant_is_zero(builtin):
    assert derivative_eval(builtin, [4.2], 0.5) == 0


def _two_gamma_column_basis():
    """Degree-12 custom basis whose column 1 holds gamma_{2,1} and
    gamma_{3,1}; the rows below are dense."""
    rng = np.random.default_rng(29)
    gamma = [list(0.1 * rng.standard_normal(k)) for k in range(1, 12)]
    gamma[0] = [0.0]
    gamma[1] = [0.4, 0.0]
    gamma[2] = [-0.3, 0.0, 0.2]
    return custom_basis(1.0 + 0.1 * rng.standard_normal(12),
                        0.1 * rng.standard_normal(12), gamma)


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
def test_deriv_all_matches_clenshaw_derivative(name):
    basis = (_two_gamma_column_basis() if name == "custom"
             else DegreeGradedBasis(name))
    xs = np.array([-0.7, 0.15, 0.3 + 0.4j, -0.5 - 0.25j])
    for kmax in range(13):
        vals, ders = _value_derivative_table(basis, kmax, xs).swapaxes(0, 1)
        assert vals.shape == ders.shape == (kmax + 1, len(xs))
        assert np.array_equal(vals, basis_eval_all(basis, kmax, xs))
        for k in range(kmax + 1):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            want = np.array([derivative_eval(basis, unit, x) for x in xs])
            assert np.allclose(ders[k], want, rtol=1e-12, atol=1e-12)


def test_deriv_all_degree_zero_and_scalar_point():
    b = DegreeGradedBasis.legendre()
    vals, ders = _value_derivative_table(b, 0, 0.3 - 0.1j).swapaxes(0, 1)
    assert vals.shape == ders.shape == (1,)
    assert vals[0] == 1.0 and ders[0] == 0.0
    vals, ders = _value_derivative_table(b, 0, np.zeros((2, 3))).swapaxes(0, 1)
    assert vals.shape == ders.shape == (1, 2, 3)
    assert np.all(vals == 1.0) and np.all(ders == 0.0)
    with pytest.raises(ValueError):
        _value_derivative_table(b, -1, 0.0)


# ----------------------------------------------------------------------
# Custom bases and tables
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "dense-gamma"])
def test_fused_recurrence_is_bitwise_the_two_loop_one(name):
    # every kmax from 0 to 16 at real and complex points of 0, 1 and 2
    # dimensions; the custom basis has nonzero beta and every gamma_{k,j}
    rng = np.random.default_rng(41)
    if name == "dense-gamma":
        basis = custom_basis(
            1.0 + 0.1 * rng.standard_normal(16), 0.1 * rng.standard_normal(16),
            [0.1 * rng.standard_normal(k) for k in range(1, 16)])
    else:
        basis = DegreeGradedBasis(name)
    points = [0.37, np.float64(-0.81), 0.2 - 0.45j,
              rng.uniform(-1, 1, 5),
              rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4),
              rng.uniform(-1, 1, (3, 2)),
              rng.uniform(-1, 1, (2, 3)) + 1j * rng.uniform(-1, 1, (2, 3))]
    for kmax in range(17):
        for x in map(np.asarray, points):
            got = _value_derivative_table(basis, kmax, x).swapaxes(0, 1)
            values = basis_eval_all(basis, kmax, x)
            assert values.flags.c_contiguous
            assert values.tobytes() == got[0].tobytes()
            if x.ndim == 0 and np.iscomplexobj(x):
                # numpy's scalar complex arithmetic, which the reference
                # runs at a 0-d point, may round differently from its
                # array loops; the fused state is an array at any point
                want = [a[:, 0] for a in two_loop_eval_deriv(
                    basis, kmax, x.reshape(1))]
            else:
                want = two_loop_eval_deriv(basis, kmax, x)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()


# JSON's 1 followed by 400 zeros: a whole number too large for a float
HUGE = 10 ** 400


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
def test_huge_table_entry_is_rejected_by_name(field):
    tables = {"alpha": [1.0, 2.0, 2.0], "beta": [0.0, 0.0, 0.0],
              "gamma": [[-1.0], [0.0, -1.0]]}
    row = tables[field] if field != "gamma" else tables["gamma"][1]
    row[1] = [0, -HUGE] if field == "beta" else HUGE
    what = "gamma[1]" if field == "gamma" else field
    with pytest.raises(ValueError) as exc:
        basis_from_json(dict(tables, name="custom"))
    msg = str(exc.value)
    assert msg.startswith(f"{what}[1] must be a number or [re, im], got ")
    assert "(401 digits, too large for a float)" in msg
    assert str(HUGE) not in msg


def test_huge_interval_end_is_rejected_by_name():
    with pytest.raises(ValueError) as exc:
        Domain.from_json({"interval": [-1, HUGE]})
    assert str(exc.value) == ("interval must be [lo, hi], got [-1, "
                              "100000... (401 digits, too large for a "
                              "float)]")


def chebyshev_tables(m):
    alpha = [1.0] + [2.0] * (m - 1)
    beta = [0.0] * m
    gamma = [[0.0] * (k - 1) + [-1.0] for k in range(1, m)]
    return alpha, beta, gamma


def test_custom_reproduces_chebyshev():
    alpha, beta, gamma = chebyshev_tables(8)
    custom = DegreeGradedBasis.custom(alpha, beta, gamma)
    builtin = DegreeGradedBasis.chebyshev()
    xs = np.linspace(-1, 1, 9)
    assert np.allclose(basis_eval_all(custom, 7, xs),
                       basis_eval_all(builtin, 7, xs))


def test_custom_dense_gamma_used():
    # gamma_{2,1} != 0 lies off the three-term band
    alpha = [1.0, 1.0, 1.0]
    beta = [0.0, 0.0, 0.0]
    gamma = [[0.0], [0.5, 0.0]]
    b = custom_basis(alpha, beta, gamma)
    # phi_3 = x*phi_2 + 0.5*phi_0 = x^3 + 0.5
    assert basis_eval_all(b, 3, 2.0)[3] == pytest.approx(8.5)
    coeffs = [0.0, 0.0, 0.0, 1.0]
    assert clenshaw_eval(b, coeffs, 2.0).value == pytest.approx(8.5)
    # columns 1 and 2 hold several nonzero gammas: several terms per shift
    dense = custom_basis(
        [1.0, 0.9, 1.1, 1.0, 1.0], [0.1] * 5,
        [[0.2], [0.5, 0.15], [0.2, 0.3, 0.0], [0.1, 0.0, 0.4, 0.0]])
    coeffs = np.random.default_rng(4).standard_normal(5)
    x = 0.3 - 0.2j
    trace = clenshaw_eval(dense, coeffs, x)
    assert np.allclose(clenshaw_shifts(dense, coeffs, x),
                       dense_shifts(dense, coeffs, x), atol=1e-13)
    assert abs(trace.value - forward_sum(dense, coeffs, x)) <= 1e-13


def test_custom_validation_errors():
    with pytest.raises(ValueError):
        DegreeGradedBasis.custom([0.0], [0.0], [])  # zero alpha
    with pytest.raises(ValueError):
        DegreeGradedBasis.custom([1.0, 1.0], [0.0], [[0.0]])  # beta short
    with pytest.raises(ValueError):
        DegreeGradedBasis.custom([1.0, 1.0], [0.0, 0.0],
                                 [[0.0, 0.0]])  # ragged row wrong length
    with pytest.raises(ValueError):
        DegreeGradedBasis("nope")


# Reference forms of each family's alpha_k and gamma_{k,j}, one call per
# entry of the table, zeros included.
_SCALAR_FORMS = {
    "monomial": (lambda k: 1.0, lambda k, j: 0.0),
    "chebyshev": (lambda k: 1.0 if k == 0 else 2.0,
                  lambda k, j: -1.0 if j == k else 0.0),
    "legendre": (lambda k: (2.0 * k + 1.0) / (k + 1.0),
                 lambda k, j: -k / (k + 1.0) if j == k else 0.0),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_FORMS))
def test_builtin_table_is_bitwise_the_scalar_forms(name):
    alpha_k, gamma_kj = _SCALAR_FORMS[name]
    tab = _builtin_table(name, 64)
    want_rows = [[(j, g) for j in range(1, k + 1)
                  if (g := gamma_kj(k, j)) != 0] for k in range(64)]
    assert tab.alpha.tobytes() == np.array(
        [alpha_k(k) for k in range(64)]).tobytes()
    assert tab.beta.tobytes() == np.zeros(64).tobytes()
    assert tab.dtype == np.float64
    assert [[(j, np.float64(g).tobytes()) for j, g in row]
            for row in tab.rows] == [[(j, np.float64(g).tobytes())
                                      for j, g in row] for row in want_rows]
    assert [[(k, g) for k, g in col] for col in tab.cols] == [
        [(k, g) for k, row in enumerate(want_rows) for i, g in row if i == j]
        for j in range(65)]
    basis = DegreeGradedBasis(name)
    assert [basis.alpha(k) for k in range(64)] == tab.alpha.tolist()
    assert all(basis.gamma(k, j) == gamma_kj(k, j)
               for k in range(1, 64) for j in range(1, k + 1))


def test_degree_overflow():
    b = custom_basis(*chebyshev_tables(3))
    assert b.max_degree() == 3
    b.require_degree(3)
    with pytest.raises(DegreeOverflowError,
                       match="basis tables support degree 3, need 4"):
        b.require_degree(4)
    with pytest.raises(DegreeOverflowError,
                       match="basis tables support degree 3, need 4"):
        basis_eval_all(b, 4, 0.0)
    with pytest.raises(DegreeOverflowError,
                       match="basis tables support degree 3, need 5"):
        clenshaw_eval(b, np.ones(6), 0.0)


def test_normalization_warning():
    # scaled Chebyshev: sup norm 3 on [-1, 1]
    alpha, beta, gamma = chebyshev_tables(5)
    alpha = [3.0 * alpha[0]] + alpha[1:]
    with pytest.warns(NormalizationWarning):
        DegreeGradedBasis.custom(alpha, beta, gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        custom_basis(alpha, beta, gamma)


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------

def test_interval_domain():
    d = Domain.interval(-2, 3)
    assert d.contains(0.5) and not d.contains(3.5)
    assert d.contains(3.0 + 5e-7j, margin=1e-6)
    nodes = d.nodes(5)
    assert len(nodes) == 5 and nodes.min() >= -2 and nodes.max() <= 3
    assert len(np.unique(nodes)) == 5
    assert Domain.from_json(d.to_json()) == d


def test_disc_domain():
    d = Domain.disc(1 + 1j, 2.0)
    assert d.contains(1 + 1j) and d.contains(2.5 + 1j)
    assert not d.contains(4 + 1j)
    nodes = d.nodes(6)
    assert np.allclose(np.abs(nodes - (1 + 1j)), 2.0)
    assert Domain.from_json(d.to_json()) == d


@pytest.mark.parametrize("domain", [Domain.interval(-2, 3),
                                    Domain.disc(1 + 1j, 2.0)],
                         ids=["interval", "disc"])
def test_contains_takes_arrays(domain):
    # points on and just past every edge, the margin's included
    z = np.array([-2.0, 3.0, 3.0 + 1e-6, 3.0 + 5e-7j, -2.0 - 5e-7j, 0.5,
                  3.0 + 1j, 1 + 3j, 1 + 3.0000005j, 1 + 3.000002j, -1 + 1j,
                  complex(np.nan, 0.0)]).reshape(3, 4)
    for margin in (0.0, 1e-6):
        got = domain.contains(z, margin)
        assert got.shape == z.shape and got.dtype == bool
        want = [_scalar_contains(domain, x, margin) for x in z.ravel()]
        assert got.ravel().tolist() == want


def _scalar_contains(domain, z, margin):
    """Domain.contains one point at a time, as it was before it took
    arrays."""
    z = complex(z)
    if domain.kind == "interval":
        return (abs(z.imag) <= margin
                and domain.lo - margin <= z.real <= domain.hi + margin)
    return abs(z - domain.center) <= domain.radius + margin


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain.interval(2, 2)
    with pytest.raises(ValueError):
        Domain.disc(0, -1.0)
    with pytest.raises(ValueError):
        Domain.from_json({"square": [0, 1]})


def test_basis_json_roundtrip():
    for b in (DegreeGradedBasis.monomial(),
              DegreeGradedBasis.chebyshev(Domain.interval(0, 2)),
              custom_basis(*chebyshev_tables(4))):
        again = basis_from_json(basis_to_json(b))
        assert again == b
    assert basis_from_json("legendre") == DegreeGradedBasis.legendre()


def test_complex_custom_basis_json_roundtrip():
    # complex recurrence coefficients travel as [real, imag] pairs
    b = custom_basis([1.0, 2.0 - 0.5j], [0.25j, 0.0], [[-1.0 + 0.1j]])
    obj = basis_to_json(b)
    assert obj["alpha"] == [1.0, [2.0, -0.5]]
    assert obj["beta"] == [[0.0, 0.25], 0.0]
    assert obj["gamma"] == [[[-1.0, 0.1]]]
    with pytest.warns(NormalizationWarning):  # loading checks the tables
        again = basis_from_json(obj)
    assert again == b
    assert again.alpha(1) == 2.0 - 0.5j and again.beta(0) == 0.25j


def test_custom_basis_on_disc_checks_normalization():
    # monomials have sup norm 1 on the unit circle and 2**k on radius 2;
    # a disc is sampled on its boundary nodes
    mono = ([1.0] * 4, [0.0] * 4, [[0.0] * k for k in range(1, 4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        DegreeGradedBasis.custom(*mono, domain=Domain.disc(0.0, 1.0))
    with pytest.warns(NormalizationWarning):
        DegreeGradedBasis.custom(*mono, domain=Domain.disc(0.0, 2.0))
    disc = Domain.disc(0.5j, 2.0)
    assert np.array_equal(disc.sample_grid(7), disc.nodes(7))


def _short_custom():
    """Custom tables for degree 2 at most: rows k = 0, 1."""
    return custom_basis([1.0, 1.0], [0.0, 0.0], [[0.0]])


@pytest.mark.parametrize("call,exc,match", [
    (lambda: Domain("square"), ValueError, "'interval' or 'disc'"),
    (lambda: Domain.interval(-1, 1).nodes(0), ValueError, "one node"),
    (lambda: DegreeGradedBasis("chebyshev", alpha=[1.0]), ValueError,
     "take no recurrence tables"),
    (lambda: DegreeGradedBasis("custom", alpha=[1.0], beta=[0.0]),
     ValueError, "needs alpha, beta and gamma"),
    (lambda: DegreeGradedBasis.custom([1.0] * 3, [0.0] * 3, [[0.0]]),
     ValueError, r"len\(alpha\) - 1 rows"),
    (lambda: DegreeGradedBasis.chebyshev().gamma(1, 2), ValueError,
     "1 <= j <= k"),
    (lambda: basis_eval_all(DegreeGradedBasis.chebyshev(), -1, 0.0),
     ValueError, "kmax must be nonnegative"),
    (lambda: clenshaw_shifts(DegreeGradedBasis.chebyshev(), [], 0.0),
     ValueError, "empty coefficient list"),
    (lambda: clenshaw_eval(DegreeGradedBasis.chebyshev(), np.ones((2, 2)),
                           0.0), ValueError, "one-dimensional"),
    (lambda: divided_difference(DegreeGradedBasis.chebyshev(), [], 0.0,
                                0.1), ValueError, "one-dimensional"),
    (lambda: basis_from_json({"domain": {"interval": [0, 1]}}), ValueError,
     "'name' field"),
    (lambda: basis_from_json("hermite"), ValueError, "unknown basis name"),
    (lambda: _short_custom().alpha(2), DegreeOverflowError,
     "basis tables support degree 2, need 3"),
    (lambda: _short_custom().beta(2), DegreeOverflowError,
     "basis tables support degree 2, need 3"),
    (lambda: _short_custom().gamma(2, 1), DegreeOverflowError,
     "basis tables support degree 2, need 3"),
    (lambda: DegreeGradedBasis.custom([1.0, np.nan, 2.0], [0.0] * 3,
                                      [[-1.0], [0.0, -1.0]]), ValueError,
     r"non-finite alpha at index \(1,\)"),
    (lambda: DegreeGradedBasis.custom([1.0, 2.0], [0.0, np.inf], [[-1.0]]),
     ValueError, r"non-finite beta at index \(1,\)"),
    (lambda: DegreeGradedBasis.custom([1.0, 2.0, 2.0], [0.0] * 3,
                                      [[-1.0], [0.0, -np.inf]]), ValueError,
     r"non-finite gamma row 2 at index \(1,\)"),
    (lambda: DegreeGradedBasis.custom([], [], []), ValueError,
     "alpha needs one or more nonzero entries"),
], ids=["domain-kind", "no-nodes", "builtin-tables", "custom-no-gamma",
        "gamma-rows", "gamma-index", "kmax", "shifts-empty", "eval-2d",
        "divdiff-empty", "json-no-name", "json-unknown", "alpha-overflow",
        "beta-overflow", "gamma-overflow", "alpha-nan", "beta-inf",
        "gamma-inf", "alpha-empty"])
def test_input_validation_raises(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


# ----------------------------------------------------------------------
# Hashing and the plan caches
# ----------------------------------------------------------------------

def int_chebyshev_tables(m):
    alpha, beta, gamma = chebyshev_tables(m)
    return ([int(a) for a in alpha], [int(b) for b in beta],
            [[int(g) for g in row] for row in gamma])


def test_equal_domains_and_bases_hash_equal():
    alpha, beta, gamma = chebyshev_tables(5)
    pairs = [
        (Domain.interval(-0.0, 1), Domain.interval(0.0, 1)),
        (Domain.disc(0.5j, 2), Domain.disc(complex(0.0, 0.5), 2.0)),
        (DegreeGradedBasis.chebyshev(), DegreeGradedBasis("chebyshev")),
        (DegreeGradedBasis.legendre(Domain.interval(-0.0, 1)),
         DegreeGradedBasis.legendre(Domain.interval(0.0, 1))),
        (DegreeGradedBasis.custom(*int_chebyshev_tables(5)),
         DegreeGradedBasis.custom(alpha, beta, gamma)),
        (DegreeGradedBasis.custom(alpha, beta, gamma),
         DegreeGradedBasis.custom(np.asarray(alpha, dtype=complex),
                                  np.asarray(beta, dtype=complex),
                                  [np.asarray(row, dtype=complex)
                                   for row in gamma])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)
        if isinstance(a, DegreeGradedBasis):
            # equal bases share one entry of every plan cache
            for name, plan in PLAN_CACHES.items():
                assert plan(*plan_args(name, a)) is plan(*plan_args(name, b))


def test_unequal_bases_get_separate_memo_entries():
    alpha, beta, gamma = chebyshev_tables(5)
    base = DegreeGradedBasis.custom(alpha, beta, gamma)
    alpha2, beta2 = list(alpha), list(beta)
    gamma2 = [list(row) for row in gamma]
    alpha2[3], beta2[1], gamma2[2][0] = 2.5, 0.5, 0.25
    others = [
        DegreeGradedBasis.chebyshev(),  # same recurrence, other name
        custom_basis(alpha, beta, gamma, domain=Domain.interval(-1, 2)),
        custom_basis(alpha2, beta, gamma),
        custom_basis(alpha, beta2, gamma),
        custom_basis(alpha, beta, gamma2),
    ]
    for name, plan in PLAN_CACHES.items():
        plan.cache_clear()
        entries = [plan(*plan_args(name, base))]
        for other in others:
            assert other != base and base != other
            entries.append(plan(*plan_args(name, other)))
        assert plan.cache_info().currsize == len(entries), name
        assert len({id(e) for e in entries}) == len(entries), name


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=9),
       st.floats(-1, 1),
       st.sampled_from(["monomial", "chebyshev", "legendre"]))
def test_clenshaw_equals_forward_everywhere(coeffs, x, name):
    b = DegreeGradedBasis(name)
    got = clenshaw_eval(b, coeffs, x).value
    want = forward_sum(b, coeffs, x)
    assert abs(got - want) <= 1e-10 * (1.0 + np.sum(np.abs(coeffs)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=8),
       st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_divided_difference_symmetry(coeffs, x, y):
    b = DegreeGradedBasis.chebyshev()
    assert abs(divided_difference(b, coeffs, x, y)
               - divided_difference(b, coeffs, y, x)) <= 1e-9

"""Linearization and the polynomial eigensolver against scalar root
oracles and direct determinant checks."""

import json

import numpy as np
import pytest
import scipy.linalg

from resultant_lab import matpoly
from resultant_lab.basis import (DegreeGradedBasis, Domain, basis_eval_all,
                                 clenshaw_shifts)
from resultant_lab.matpoly import (Eigenpair, EigenSolveError,
                                   MatrixPolynomial, NotRegularError,
                                   eig_condition, eigpair,
                                   eigvecs_and_conditions, linearize,
                                   matpoly_deriv_eval, matpoly_eval,
                                   matpoly_from_json, matpoly_to_json,
                                   polyeig)
from resultant_lab.rootfinder import _component_from_vector


def random_matpoly(rng, basis, degree, size, complex_entries=False):
    shape = (degree + 1, size, size)
    c = rng.standard_normal(shape)
    if complex_entries:
        c = c + 1j * rng.standard_normal(shape)
    return MatrixPolynomial(basis, c)


def scalar_roots_oracle(basis, coeffs):
    """Roots of a scalar polynomial via numpy's basis-specific solvers."""
    if basis.name == "monomial":
        return np.polynomial.polynomial.polyroots(coeffs)
    if basis.name == "chebyshev":
        return np.polynomial.chebyshev.chebroots(coeffs)
    if basis.name == "legendre":
        return np.polynomial.legendre.legroots(coeffs)
    raise AssertionError


@pytest.fixture(params=["monomial", "chebyshev", "legendre"])
def builtin(request):
    return DegreeGradedBasis(request.param)


def dense_gamma_basis(domain=None):
    """Degree-8 custom basis with off-band gamma entries, two of them in
    column 1, and nonzero beta."""
    rng = np.random.default_rng(31)
    gamma = [list(0.05 * rng.standard_normal(k)) for k in range(1, 8)]
    gamma[0] = [0.0]
    gamma[1] = [0.4, 0.0]
    gamma[2] = [-0.3, 0.0, 0.2]
    return DegreeGradedBasis.custom(1.0 + 0.1 * rng.standard_normal(8),
                                    0.1 * rng.standard_normal(8), gamma,
                                    domain=domain, check_normalization=False)


def basis_by_name(name, domain=None):
    if name == "custom":
        return dense_gamma_basis(domain)
    return DegreeGradedBasis(name, domain=domain)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def test_eval_matches_direct_sum(builtin):
    rng = np.random.default_rng(1)
    P = random_matpoly(rng, builtin, 4, 3)
    lam = 0.37 + 0.11j
    phis = basis_eval_all(builtin, 4, lam)
    want = sum(phis[i] * P.coeffs[i] for i in range(5))
    assert np.allclose(matpoly_eval(P, lam), want, atol=1e-12)


def test_deriv_matches_fd(builtin):
    rng = np.random.default_rng(2)
    P = random_matpoly(rng, builtin, 5, 2)
    lam = 0.3
    h = 1e-6
    fd = (matpoly_eval(P, lam + h) - matpoly_eval(P, lam - h)) / (2 * h)
    assert np.allclose(matpoly_deriv_eval(P, lam), fd, atol=1e-7)


def shift_identity_deriv(P, lam):
    """P'(lam) through the shift identity over the matrix stack, the
    Clenshaw form matpoly_deriv_eval replaced."""
    K = P.degree
    b = clenshaw_shifts(P.basis, P.coeffs, complex(lam))  # b[i] = b_{i+1}
    phis = basis_eval_all(P.basis, K - 1, complex(lam))
    al = P.basis.table(K - 1).alpha[:K]
    return np.tensordot(al * phis, b[:K], axes=([0], [0]))


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
@pytest.mark.parametrize("lam", [0.37, -0.6 + 0.25j])
def test_deriv_matches_shift_identity(name, lam):
    rng = np.random.default_rng(4)
    basis = basis_by_name(name)
    for degree in (1, 2, 7):
        P = random_matpoly(rng, basis, degree, 4, complex_entries=True)
        want = shift_identity_deriv(P, lam)
        got = matpoly_deriv_eval(P, lam)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_deriv_constant_zero(builtin):
    P = MatrixPolynomial(builtin, np.ones((1, 2, 2)))
    assert np.array_equal(matpoly_deriv_eval(P, 0.4), np.zeros((2, 2)))


def test_properties():
    b = DegreeGradedBasis.monomial()
    c = np.zeros((3, 2, 2))
    c[0] = np.eye(2)
    P = MatrixPolynomial(b, c)
    assert P.size == 2 and P.degree == 2
    assert P.coeff_scale == 1.0
    with pytest.raises(ValueError):
        MatrixPolynomial(b, np.ones((2, 2, 3)))


def test_coeff_scale_is_the_largest_spectral_norm(builtin):
    rng = np.random.default_rng(5)
    for complex_entries in (False, True):
        P = random_matpoly(rng, builtin, 4, 6, complex_entries)
        assert P.coeff_scale == max(np.linalg.norm(a, 2) for a in P.coeffs)


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "custom"])
@pytest.mark.parametrize("domain", [None, Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["interval", "disc"])
def test_regularity_probes_match_pointwise(name, domain):
    P = random_matpoly(np.random.default_rng(8),
                       basis_by_name(name, domain), 3, 5, True)
    # the probe points and scaling of _regularity_probes, one point at a
    # time
    rng = np.random.default_rng(20240811)
    dom = P.basis.domain
    if dom.kind == "interval":
        span, mid = 0.5 * (dom.hi - dom.lo), 0.5 * (dom.hi + dom.lo)
    else:
        span, mid = dom.radius, dom.center
    probes = mid + span * (rng.standard_normal(4)
                           + 1j * rng.standard_normal(4))
    want = [abs(np.linalg.det(matpoly_eval(P, z) / P.coeff_scale))
            for z in probes]
    got = matpoly._regularity_probes(P)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, want))


# ----------------------------------------------------------------------
# Linearization
# ----------------------------------------------------------------------

def test_pencil_eigenvalues_kill_determinant(builtin):
    rng = np.random.default_rng(3)
    P = random_matpoly(rng, builtin, 3, 2)
    X, Y = linearize(P)
    assert X.shape == (6, 6)
    import scipy.linalg
    vals = scipy.linalg.eigvals(X, Y)
    finite = vals[np.isfinite(vals)]
    scale = P.coeff_scale
    for lam in finite:
        assert abs(np.linalg.det(matpoly_eval(P, lam))) <= 1e-6 * scale ** 2
    # pencil eigenvector stacks phi_k(lam) * z
    vals2, vecs = scipy.linalg.eig(X, Y)
    idx = np.argmin(np.abs(vals2 - finite[0]))
    lam = vals2[idx]
    u = vecs[:, idx]
    phis = basis_eval_all(builtin, 2, lam)
    z = u[:2]
    for k in range(3):
        assert np.allclose(u[2 * k:2 * k + 2], phis[k] * z, atol=1e-8)


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
def test_linearize_is_real_for_real_coefficients(name):
    # a real pencil takes half the bytes of a complex one and lets the
    # eigensolver run in real arithmetic
    rng = np.random.default_rng(12)
    for domain in (None, Domain.disc(0.2 + 0.1j, 1.5)):
        basis = basis_by_name(name, domain)
        X, Y = linearize(random_matpoly(rng, basis, 3, 2))
        assert X.dtype == Y.dtype == np.float64
        X, Y = linearize(random_matpoly(rng, basis, 3, 2,
                                        complex_entries=True))
        assert X.dtype == Y.dtype == np.complex128


def test_linearize_rejects_constant(builtin):
    with pytest.raises(ValueError):
        linearize(MatrixPolynomial(builtin, np.ones((1, 2, 2))))


# ----------------------------------------------------------------------
# polyeig
# ----------------------------------------------------------------------

def match_nearest(got, want, tol):
    """Greedy bipartite matching; conjugate pairs make position-by-position
    comparison after sorting unstable."""
    left = list(got)
    for w in want:
        gaps = [abs(g - w) for g in left]
        i = int(np.argmin(gaps))
        assert gaps[i] <= tol * (1 + abs(w))
        left.pop(i)


def test_scalar_polyeig_matches_numpy_roots(builtin):
    rng = np.random.default_rng(5)
    for trial in range(5):
        coeffs = rng.standard_normal(6)
        P = MatrixPolynomial(builtin, coeffs.reshape(-1, 1, 1))
        lams = polyeig(P)[0]
        want = scalar_roots_oracle(builtin, coeffs)
        assert len(lams) == len(want) == 5
        match_nearest(lams, want, 1e-8)


def test_matrix_polyeig_residuals_and_count(builtin):
    rng = np.random.default_rng(6)
    P = random_matpoly(rng, builtin, 3, 3, complex_entries=True)
    lams, n_inf = polyeig(P)
    assert len(lams) + n_inf == 9
    scale = P.coeff_scale
    for lam in lams:
        p = eigpair(P, lam)
        assert isinstance(p, Eigenpair) and p.lam == lam
        assert abs(np.linalg.norm(p.right) - 1) <= 1e-12
        assert abs(np.linalg.norm(p.left) - 1) <= 1e-12
        assert p.residual <= 1e-9 * scale
        M = matpoly_eval(P, p.lam)
        assert abs(p.residual - np.linalg.norm(M @ p.right)) <= 1e-12 * scale
        assert abs(p.residual - np.linalg.norm(p.left @ M)) <= 1e-12 * scale
        # eigenvalues really kill the determinant
        s = np.linalg.svd(M, compute_uv=False)
        assert s[-1] <= 1e-9 * scale


def test_polyeig_trims_roundoff_leading_coefficients():
    b = DegreeGradedBasis.monomial()
    rng = np.random.default_rng(7)
    c = np.zeros((4, 2, 2), dtype=complex)
    c[:3] = rng.standard_normal((3, 2, 2))
    c[3] = 1e-16 * rng.standard_normal((2, 2))  # roundoff-sized tail
    P = MatrixPolynomial(b, c)
    lams, n_inf = polyeig(P)
    assert len(lams) + n_inf == 6  # bookkeeping against declared degree
    assert n_inf >= 2
    exact = polyeig(MatrixPolynomial(b, c[:3]))[0]
    match_nearest(lams, exact, 1e-8)


def test_polyeig_infinite_eigenvalues():
    # det(A0 + lam A1) with singular A1: fewer than N finite eigenvalues
    b = DegreeGradedBasis.monomial()
    A0 = np.eye(2)
    A1 = np.diag([1.0, 0.0])
    P = MatrixPolynomial(b, np.stack([A0, A1]))
    lams, n_inf = polyeig(P)
    assert len(lams) == 1 and n_inf == 1
    assert lams[0] == pytest.approx(-1.0)


def test_real_polyeig_gives_exact_conjugate_pairs(builtin):
    # real QZ returns real eigenvalues with an imaginary part of exactly
    # zero and the rest in conjugate pairs, equal up to the rounding of
    # alpha / beta; complex QZ leaves roundoff-sized imaginary parts on
    # some of the real ones for this seed
    rng = np.random.default_rng(8)
    P = random_matpoly(rng, builtin, 3, 4)
    lams = polyeig(P)[0]
    real = lams.imag == 0
    assert np.any(real) and not np.all(real)
    pairs = lams[~real]
    assert np.all(np.abs(pairs.imag) > 1e-8 * np.abs(pairs))
    match_nearest(pairs.conj(), pairs, 4 * np.finfo(float).eps)


def test_polyeig_not_regular():
    b = DegreeGradedBasis.monomial()
    # det(A (1 + lam)) vanishes identically when A is rank deficient
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    P = MatrixPolynomial(b, np.stack([A, A]))
    with pytest.raises(NotRegularError):
        polyeig(P)
    # constant singular matrix
    with pytest.raises(NotRegularError):
        polyeig(MatrixPolynomial(b, A.reshape(1, 2, 2)))
    # zero matrix polynomial
    with pytest.raises(NotRegularError):
        polyeig(MatrixPolynomial(b, np.zeros((2, 1, 1))))


def test_left_vectors_are_plain_transpose():
    # nonsymmetric matrix with complex eigenvalues: w^T P(lam) = 0 must
    # hold with a plain (unconjugated) transpose
    b = DegreeGradedBasis.monomial()
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    P = MatrixPolynomial(b, np.stack([-A, np.eye(2)]))
    for lam in polyeig(P)[0]:
        p = eigpair(P, lam)
        assert np.linalg.norm(p.left @ matpoly_eval(P, p.lam)) <= 1e-12


def test_eig_condition_simple_and_defective():
    b = DegreeGradedBasis.monomial()
    # P(lam) = diag(lam - 1, lam + 2): simple eigenvalues, kappa = 1
    P = MatrixPolynomial(
        b, np.stack([np.diag([-1.0, 2.0]), np.eye(2)]))
    for lam in polyeig(P)[0]:
        assert eig_condition(P, eigpair(P, lam)) == pytest.approx(1.0,
                                                                  rel=1e-10)
    # Jordan block: defective eigenvalue reported as infinite
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    PJ = MatrixPolynomial(b, np.stack([-J, np.eye(2)]))
    assert any(np.isinf(eig_condition(PJ, eigpair(PJ, lam)))
               for lam in polyeig(PJ)[0])


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
def test_batched_eigvecs_match_eigpair(name):
    rng = np.random.default_rng(12)
    P = random_matpoly(rng, basis_by_name(name), 3, 5, True)
    lams = polyeig(P)[0]
    right, left, residuals, kappas = eigvecs_and_conditions(P, lams)
    assert right.shape == left.shape == (len(lams), 5)
    for k, lam in enumerate(lams):
        pair = eigpair(P, lam)
        # unit vectors, equal up to a phase; residuals at roundoff level
        assert abs(np.vdot(pair.right, right[k])) == pytest.approx(1, 1e-12)
        assert abs(np.vdot(pair.left, left[k])) == pytest.approx(1, 1e-12)
        assert abs(residuals[k] - pair.residual) <= 1e-13 * P.coeff_scale
        assert kappas[k] == pytest.approx(eig_condition(P, pair), rel=1e-12)


def test_batched_eigvecs_flag_defective_like_eig_condition():
    b = DegreeGradedBasis.monomial()
    # diag(Jordan block at 0, -2) in a rotated frame: lam = 0 is
    # defective, its Rayleigh denominator roundoff-sized but not zero
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    P = MatrixPolynomial(b, np.stack([-Q @ A @ Q.T, np.eye(3)]))
    lams = np.array([0.0, -2.0])
    kappas = eigvecs_and_conditions(P, lams)[3]
    assert kappas[0] == np.inf and np.isfinite(kappas[1])
    want = [eig_condition(P, eigpair(P, lam)) for lam in lams]
    assert kappas[0] == want[0]
    assert kappas[1] == pytest.approx(want[1], rel=1e-12)
    assert eigvecs_and_conditions(P, lams[:0])[0].shape == (0, 3)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_matpoly_json_roundtrip(builtin):
    rng = np.random.default_rng(9)
    P = random_matpoly(rng, builtin, 2, 3, complex_entries=True)
    obj = json.loads(json.dumps(matpoly_to_json(P)))
    Q = matpoly_from_json(obj)
    assert Q.basis == builtin
    assert np.allclose(Q.coeffs, P.coeffs)
    with pytest.raises(ValueError):
        bad = dict(obj, size=7)
        matpoly_from_json(bad)


def test_polyeig_with_dense_gamma_basis():
    # gamma_{2,1} and gamma_{3,2} sit off the band, so linearize and the
    # component recovery both read entries a three-term basis never has
    gamma = [[0.0], [0.5, 0.0], [0.0, 0.3, 0.0], [0.0] * 4]
    b = DegreeGradedBasis.custom([1.0] * 5, [0.0] * 5, gamma,
                                 check_normalization=False)
    rng = np.random.default_rng(21)
    c = rng.standard_normal((5, 3, 3))
    c[4] = np.eye(3)  # monic, so every eigenvalue stays moderate
    P = MatrixPolynomial(b, c)
    lams, n_inf = polyeig(P)
    assert len(lams) == 12 and n_inf == 0
    for lam in lams:
        assert np.isfinite(lam)
        assert eigpair(P, lam).residual <= 1e-12
    for x in (0.3, -0.7 + 0.2j):
        got = _component_from_vector(basis_eval_all(b, 4, x), b)
        assert abs(got - x) <= 1e-13


# ----------------------------------------------------------------------
# Shift and invert against QZ
# ----------------------------------------------------------------------

def qz_eigenvalues(P):
    """Finite generalized eigenvalues of linearize(P) from QZ, and the
    infinite count, by the |beta| / |(alpha, beta)| <= 1e3 eps test."""
    alphas, betas = scipy.linalg.eigvals(*linearize(P),
                                         homogeneous_eigvals=True)
    finite = (np.abs(betas) / np.hypot(np.abs(alphas), np.abs(betas))
              > 1e3 * np.finfo(float).eps)
    return alphas[finite] / betas[finite], int(np.count_nonzero(~finite))


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
@pytest.mark.parametrize("domain", [Domain.interval(-1.0, 1.0),
                                    Domain.interval(2.0, 5.0),
                                    Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["unit", "offset", "disc"])
@pytest.mark.parametrize("complex_entries", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("lead", ["full", "singular"])
def test_polyeig_matches_qz(name, domain, complex_entries, lead):
    rng = np.random.default_rng(17)
    basis = basis_by_name(name, domain)
    P = random_matpoly(rng, basis, 3, 3, complex_entries)
    if lead == "singular":
        # rank-2 leading coefficient: one infinite eigenvalue
        c = P.coeffs.copy()
        c[-1] = np.outer(c[-1][:, 0], c[-1][0]) + np.outer(c[-1][:, 1],
                                                           c[-1][1])
        P = MatrixPolynomial(basis, c)
    want, want_inf = qz_eigenvalues(P)
    lams, n_inf = polyeig(P)
    assert n_inf == want_inf == (1 if lead == "singular" else 0)
    assert len(lams) == len(want) == 9 - n_inf
    assert np.all(np.diff(lams.real) >= 0)
    match_nearest(lams, want, 1e-8)


@pytest.mark.parametrize("domain", [Domain.interval(-1.0, 1.0),
                                    Domain.interval(2.0, 5.0),
                                    Domain.disc(0.5 + 0.5j, 2.0)],
                         ids=["unit", "offset", "disc"])
def test_polyeig_moves_off_a_shift_on_a_root(domain, monkeypatch):
    # a root exactly at the first shift makes X - mu Y singular; the
    # guard rejects that shift and the next one finds every root
    basis = DegreeGradedBasis.monomial(domain)
    mu = matpoly._shifts(domain)[1][0]
    roots = np.array([mu, mu - 0.3, mu - 0.8])
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    P = MatrixPolynomial(basis, coeffs.reshape(-1, 1, 1))
    shifts = []
    inverted = matpoly._inverted_pencil

    def recording(P, shift):
        shifts.append(shift)
        return inverted(P, shift)

    monkeypatch.setattr(matpoly, "_inverted_pencil", recording)
    lams, n_inf = polyeig(P)
    assert shifts == matpoly._shifts(domain)[1][:2]
    assert n_inf == 0
    match_nearest(lams, roots, 1e-10)
    # with the first shift as the only one, polyeig gives up
    monkeypatch.setattr(matpoly, "_SHIFT_OFFSETS",
                        matpoly._SHIFT_OFFSETS[:1])
    with pytest.raises(EigenSolveError, match="shift"):
        polyeig(P)

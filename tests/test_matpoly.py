"""The polynomial eigensolver against scalar root oracles, direct
determinant checks and a dense reference linearization."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from resultant_lab import matpoly
from resultant_lab.basis import (DegreeGradedBasis, Domain, basis_eval_all,
                                 basis_eval_deriv_all, clenshaw_shifts)
from resultant_lab.matpoly import (EigenSolveError, MatrixPolynomial,
                                   NotRegularError, StructureError,
                                   eigvecs_and_conditions, matpoly_eval,
                                   matpoly_from_json, matpoly_to_json,
                                   polyeig)
from resultant_lab.cayley import cayley_resultant
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem,
                                     hide_variable, mp_eval)
from resultant_lab.rootfinder import (_component_from_vector,
                                      family_orthogonal_quadratic,
                                      random_system_with_root)
from resultant_lab.sylvester import sylvester_resultant
from conftest import dense_gamma_basis


def deriv_eval(P, lam):
    """P'(lam) = sum_i A_i phi_i'(lam) from the basis derivatives, as
    condition_at_root forms it."""
    ders = basis_eval_deriv_all(P.basis, P.degree, lam)[1]
    return np.tensordot(ders, P.coeffs, axes=([0], [0]))


def eigpair(P, lam):
    """Reference eigenpair at one lam: the right and plain-transpose left
    singular vectors of the smallest singular value of P(lam), and that
    value, from a direct SVD."""
    U, s, Vh = np.linalg.svd(matpoly_eval(P, lam))
    return np.conj(Vh[-1]), np.conj(U[:, -1]), s[-1]


def eig_condition(P, lam, v, w):
    """Reference kappa = ||v|| ||w|| / |w^T P'(lam) v|, inf below the
    1e3 * eps * ||v|| ||w|| ||P'(lam)||_2 defectiveness cutoff."""
    dP = deriv_eval(P, lam)
    denom = abs(w @ dP @ v)
    scale = np.linalg.norm(v) * np.linalg.norm(w)
    if denom <= 1e3 * np.finfo(float).eps * scale * np.linalg.norm(dP, 2):
        return np.inf
    return scale / denom


def svd_eigvecs_and_conditions(P, lams):
    """eigvecs_and_conditions as it was before inverse iteration: the
    vectors of the smallest singular value from one stacked SVD of
    P(lam), that value as the residual, and the ||P'(lam)||_2 cutoff
    from singular values of every P'(lam)."""
    vals, ders = basis_eval_deriv_all(P.basis, P.degree, lams)
    U, s, Vh = np.linalg.svd(np.tensordot(vals, P.coeffs, axes=([0], [0])))
    right, left = np.conj(Vh[:, -1]), np.conj(U[:, :, -1])
    dPs = np.tensordot(ders, P.coeffs, axes=([0], [0]))
    denom = np.abs(np.einsum("mi,mij,mj->m", left, dPs, right))
    scale = np.linalg.norm(right, axis=-1) * np.linalg.norm(left, axis=-1)
    cutoff = (1e3 * np.finfo(float).eps * scale
              * np.linalg.svd(dPs, compute_uv=False)[:, 0])
    kappas = np.divide(scale, denom, out=np.full(len(denom), np.inf),
                       where=~(denom <= cutoff))
    return right, left, s[:, -1], kappas


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
    assert np.allclose(deriv_eval(P, lam), fd, atol=1e-7)


def shift_identity_deriv(P, lam):
    """P'(lam) through the shift identity over the matrix stack, the
    Clenshaw form that deriv_eval's contraction replaced."""
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
        got = deriv_eval(P, lam)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_deriv_constant_zero(builtin):
    P = MatrixPolynomial(builtin, np.ones((1, 2, 2)))
    assert np.array_equal(deriv_eval(P, 0.4), np.zeros((2, 2)))


def test_properties():
    b = DegreeGradedBasis.monomial()
    c = np.zeros((3, 2, 2))
    c[0] = np.eye(2)
    P = MatrixPolynomial(b, c)
    assert P.size == 2 and P.degree == 2
    assert P.coeff_scale == 1.0
    with pytest.raises(ValueError):
        MatrixPolynomial(b, np.ones((2, 2, 3)))


NON_FINITE = [complex(np.nan, 0.0), complex(np.inf, 0.0),
              complex(-np.inf, 0.0), complex(0.0, np.nan),
              complex(0.0, np.inf), complex(0.0, -np.inf)]


@pytest.mark.parametrize("bad", NON_FINITE,
                         ids=["nan", "inf", "-inf", "nan-imag", "inf-imag",
                              "-inf-imag"])
def test_non_finite_coefficients_are_rejected(bad):
    b = DegreeGradedBasis.chebyshev()
    c = np.random.default_rng(17).standard_normal((3, 4, 4)).astype(complex)
    c[2, 1, 3] = bad
    with pytest.raises(ValueError, match=r"non-finite coefficients at index "
                       r"\(2, 1, 3\)$"):
        MatrixPolynomial(b, c)
    c[0, 0, :] = bad
    c[1, 2, 2] = bad
    c[2, 3, 0] = bad
    with pytest.raises(ValueError, match=r"index \(0, 0, 0\), \(0, 0, 1\), "
                       r"\(0, 0, 2\), \(0, 0, 3\), \(1, 2, 2\) and 2 more$"):
        MatrixPolynomial(b, c)


def test_coeff_scale_is_the_largest_spectral_norm(builtin):
    # a real stack takes its norms in real arithmetic, so it matches the
    # complex computation to rounding, not bit for bit
    rng = np.random.default_rng(5)
    for complex_entries in (False, True):
        P = random_matpoly(rng, builtin, 4, 6, complex_entries)
        want = max(np.linalg.norm(a.astype(complex), 2) for a in P.coeffs)
        assert abs(P.coeff_scale - want) <= 4 * np.finfo(float).eps * want


def probe_points(domain):
    """The four probe points: seeded offsets from the domain centre in
    units of its radius."""
    rng = np.random.default_rng(20240811)
    return domain.center + domain.radius * (rng.standard_normal(4)
                                            + 1j * rng.standard_normal(4))


def scaled_probe_decision(P):
    """The regularity decision one probe point at a time: whether some
    P(z) / sigma_max(P(z)) has its smallest singular value above 1e-12,
    each from its own np.linalg.svd."""
    for z in probe_points(P.basis.domain):
        s = np.linalg.svd(matpoly_eval(P, z), compute_uv=False)
        if s[-1] > 1e-12 * s[0]:
            return True
    return False


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "custom"])
@pytest.mark.parametrize("domain", [None, Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["interval", "disc"])
def test_regularity_probes_match_pointwise(name, domain):
    basis = basis_by_name(name, domain)
    dom = basis.domain
    probes = dom.center + dom.radius * matpoly._PROBE_OFFSETS
    assert identical(probes, probe_points(dom))
    P = random_matpoly(np.random.default_rng(8), basis, 3, 5, True)
    assert matpoly.matpoly_is_regular(P) and scaled_probe_decision(P)
    # diag(1, q) with q vanishing at three probe points: singular there,
    # so the fourth point alone decides
    phis = basis_eval_all(basis, 3, probes)
    for k in range(4):
        q = np.linalg.svd(np.delete(phis, k, axis=1).T)[2][-1].conj()
        C = np.zeros((4, 2, 2), dtype=complex)
        C[0, 0, 0] = 1.0 / phis[0, 0]
        C[:, 1, 1] = q
        Q = MatrixPolynomial(basis, C)
        sv = np.linalg.svd(matpoly_eval(Q, probes), compute_uv=False)
        assert np.sum(sv[:, -1] <= 1e-12 * sv[:, 0]) == 3
        assert matpoly.matpoly_is_regular(Q) and scaled_probe_decision(Q)


@pytest.mark.parametrize("domain", [None, Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["interval", "disc"])
def test_polyeig_takes_no_coeff_scale_on_regular_p(builtin, domain,
                                                   monkeypatch):
    def forbidden(self):
        raise AssertionError("coeff_scale computed")

    monkeypatch.setattr(MatrixPolynomial, "coeff_scale", property(forbidden))
    rng = np.random.default_rng(12)
    for complex_entries in (False, True):
        for size in (1, 5, 12):
            P = random_matpoly(rng, DegreeGradedBasis(builtin.name,
                                                    domain=domain),
                               4, size, complex_entries)
            lams, n_inf = polyeig(P)
            assert len(lams) + n_inf == 4 * size


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre"])
@pytest.mark.parametrize("domain", [None, Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["interval", "disc"])
def test_regularity_decisions_match_scaled_probes(name, domain):
    basis = basis_by_name(name, domain)
    rng = np.random.default_rng(14)
    decisions = []
    for size in (1, 3, 8):
        P = random_matpoly(rng, basis, 3, size, True)
        assert matpoly.matpoly_is_regular(P) == scaled_probe_decision(P)
        # a zero column in every A_i makes P(z) singular exactly; t E
        # moves the singular value ratios across the threshold
        C = P.coeffs.copy()
        C[:, :, -1] = 0.0
        E = rng.standard_normal(C.shape)
        for t in np.concatenate([[0.0], 10.0 ** np.arange(-16.0, 0.0, 0.25)]):
            Q = MatrixPolynomial(basis, C + t * E)
            decisions.append(matpoly.matpoly_is_regular(Q))
            assert decisions[-1] == scaled_probe_decision(Q)
    assert True in decisions and False in decisions
    Z = MatrixPolynomial(basis, np.zeros((3, 4, 4)))
    assert not matpoly.matpoly_is_regular(Z) and not scaled_probe_decision(Z)
    with pytest.raises(NotRegularError):
        polyeig(Z)


@pytest.mark.parametrize("sigma", [0.5, 1e-3])
def test_orthogonal_family_stays_not_regular(sigma):
    # its Cayley resultant vanishes identically in the hidden variable
    sys_ = family_orthogonal_quadratic(3, sigma)
    P = cayley_resultant(hide_variable(sys_)).matrix_poly
    k_eff = matpoly._effective_degree(P)
    work = MatrixPolynomial(P.basis, P.coeffs[:k_eff + 1])
    assert not matpoly.matpoly_is_regular(work)
    assert not scaled_probe_decision(work)
    with pytest.raises(NotRegularError):
        polyeig(P)


@pytest.mark.parametrize("domain", [None, Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["interval", "disc"])
def test_identity_is_regular_at_every_size(domain):
    # det(P(z) / ||P||_F) = N**(-N / 2), 40**-20 at N = 40, while the
    # singular value ratio is 1 at every N
    b = DegreeGradedBasis.monomial(domain=domain)
    for N in (1, 10, 40):
        P = MatrixPolynomial(b, np.stack([np.eye(N), np.zeros((N, N))]))
        assert matpoly.matpoly_is_regular(P) and scaled_probe_decision(P)
        lams, n_inf = polyeig(P)
        assert len(lams) == 0 and n_inf == N
        assert polyeig(MatrixPolynomial(b, np.eye(N)[None]))[1] == 0


@pytest.mark.parametrize("name,domain", [
    ("monomial", None), ("chebyshev", None),
    ("chebyshev", Domain.disc(0.2 + 0.1j, 1.5))],
    ids=["monomial-interval", "chebyshev-interval", "chebyshev-disc"])
def test_shared_null_vector_is_not_regular(name, domain):
    # A_i - (A_i v) v^H share the null vector v up to rounding, so P(z)
    # is singular at every z, however large the basis values there
    rng = np.random.default_rng(35)
    basis = basis_by_name(name, domain)
    A = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    P = MatrixPolynomial(basis, A - np.einsum("kij,j,l->kil", A, v, v.conj()))
    assert not matpoly.matpoly_is_regular(P)
    assert not scaled_probe_decision(P)
    with pytest.raises(NotRegularError):
        polyeig(P)


def mixed_degree_system(degrees, seed, basis):
    """d = len(degrees) dense random polynomials, polynomial i of degree
    degrees[i] in every variable, sharing a planted root."""
    d = len(degrees)
    rng = np.random.default_rng(seed)
    root = rng.uniform(-0.7, 0.7, size=d).astype(complex)
    polys = []
    for n in degrees:
        c = rng.standard_normal((n + 1,) * d).astype(complex)
        c[(0,) * d] -= mp_eval(MultiPoly(basis, d, c), root)
        polys.append(MultiPoly(basis, d, c))
    return PolynomialSystem(polys=tuple(polys))


def test_regularity_decisions_on_solver_corpora():
    # the benchmark's solve shapes stay regular under both constructions
    for k in range(16):
        basis = ("chebyshev", "legendre")[k % 2]
        sys3, _ = random_system_with_root(3, 3, [1, k], basis)
        sys2, _ = random_system_with_root(2, 5, [1, k], basis)
        for P in (cayley_resultant(hide_variable(sys3, k % 3)).matrix_poly,
                  cayley_resultant(hide_variable(sys2, k % 2)).matrix_poly,
                  sylvester_resultant(hide_variable(sys2, k % 2)).matrix_poly):
            k_eff = matpoly._effective_degree(P)
            work = MatrixPolynomial(P.basis, P.coeffs[:k_eff + 1])
            assert matpoly.matpoly_is_regular(work)
    # mixed-degree d = 3 systems and the orthogonal family do not
    cheb = DegreeGradedBasis.chebyshev()
    for degrees in ((1, 1, 3), (3, 1, 1), (1, 3, 1)):
        for seed in range(3):
            sys_ = mixed_degree_system(degrees, seed, cheb)
            for hidden in range(3):
                P = cayley_resultant(hide_variable(sys_, hidden)).matrix_poly
                with pytest.raises(NotRegularError):
                    polyeig(P)
    for sigma in (0.5, 0.2, 0.1):
        sys_ = family_orthogonal_quadratic(3, sigma, basis_name="chebyshev")
        with pytest.raises(NotRegularError):
            polyeig(cayley_resultant(hide_variable(sys_)).matrix_poly)


def stacked_probe_decision(P):
    """The four-point rule from one stacked SVD of P at every probe
    point, as matpoly_is_regular took it before it stopped at the first
    point that passes."""
    sv = np.linalg.svd(matpoly_eval(P, probe_points(P.basis.domain)),
                       compute_uv=False)
    return bool(np.any(sv[:, -1] > 1e-12 * sv[:, 0]))


def singular_at_first_three_probes(basis):
    """diag(1, q) of degree 3 with q zero at the first three probe
    points, so that only the fourth passes."""
    phis = basis_eval_all(basis, 3, probe_points(basis.domain))
    C = np.zeros((4, 2, 2), dtype=complex)
    C[0, 0, 0] = 1.0
    C[:, 1, 1] = np.linalg.svd(phis[:, :3].T)[2][-1].conj()
    return MatrixPolynomial(basis, C)


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "custom"])
@pytest.mark.parametrize("domain", [None, Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["interval", "disc"])
def test_first_passing_probe_decides_as_the_stacked_rule(name, domain):
    basis = basis_by_name(name, domain)
    rng = np.random.default_rng(15)
    cases = [random_matpoly(rng, basis, 3, size, complex_entries)
             for size in (1, 4, 9) for complex_entries in (False, True)]
    # a null vector shared by every coefficient: singular everywhere
    A = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    cases.append(MatrixPolynomial(
        basis, A - np.einsum("kij,j,l->kil", A, v, v.conj())))
    cases.append(singular_at_first_three_probes(basis))
    cases.append(MatrixPolynomial(basis, np.zeros((3, 4, 4))))
    decisions = [matpoly.matpoly_is_regular(P) for P in cases]
    assert decisions == [stacked_probe_decision(P) for P in cases]
    assert decisions == [True] * 6 + [False, True, False]


def test_regular_p_takes_one_svd(builtin, monkeypatch):
    rng = np.random.default_rng(16)
    P = random_matpoly(rng, builtin, 4, 6, True)
    Q = singular_at_first_three_probes(builtin)
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert matpoly.matpoly_is_regular(P)
    assert len(calls) == 1
    # only the fourth probe point passes, so all four are taken
    assert matpoly.matpoly_is_regular(Q)
    assert len(calls) == 5


# ----------------------------------------------------------------------
# Linearization (dense reference)
# ----------------------------------------------------------------------

def linearize(P):
    """Block-companion pencil (X, Y) with X u = lambda Y u.

    The first K - 1 block rows impose the basis recurrence, so the
    pencil eigenvector stacks phi_0(lambda) z, ..., phi_{K-1}(lambda) z
    on top of each other for every eigenvector z of P.  The last block
    row carries the coefficient matrices.  Finite pencil eigenvalues
    coincide with the eigenvalues of P.  X and Y are float64 when the
    coefficients and the recurrence are real, complex otherwise.  The
    solver never forms this pencil; it is the dense reference that
    _inverted_pencil and polyeig are checked against.
    """
    K, N = P.degree, P.size
    if K == 0:
        raise ValueError("constant matrix polynomial has no eigenvalues")
    tab = P.basis.table(K - 1)
    A = P.coeffs
    if not np.any(A.imag):
        A = A.real
    gammas = np.array([g for row in tab.rows[:K] for _, g in row])
    X = np.zeros((N * K, N * K),
                 dtype=np.result_type(A, tab.alpha, tab.beta, gammas))
    Y = np.zeros_like(X)
    eye = np.eye(N)

    def blk(i, j):
        return slice(i * N, (i + 1) * N), slice(j * N, (j + 1) * N)

    for k in range(K - 1):
        X[blk(k, k)] += tab.beta[k] * eye
        X[blk(k, k + 1)] = -eye
        for j, g in tab.rows[k]:
            X[blk(k, j - 1)] += g * eye
        Y[blk(k, k)] = -tab.alpha[k] * eye
    last = K - 1
    for i in range(K - 1):
        X[blk(last, i)] = A[i]
    for j, g in tab.rows[last]:
        X[blk(last, j - 1)] += g * A[K]
    X[blk(last, last)] = A[K - 1] + tab.beta[last] * A[K]
    Y[blk(last, last)] = -tab.alpha[last] * A[K]
    return X, Y


def dense_inverted_pencil(P, mu, *table):
    """M = (X - mu Y)^-1 Y from one dense LU solve of the NK x NK
    pencil, as the solver formed it before its N x N solve.  The scalar
    table of _inverted_pencil is accepted and not used."""
    X, Y = linearize(P)
    X = X.astype(np.result_type(X, mu), copy=False)
    X -= mu * Y
    return np.linalg.solve(X, Y)


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


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
@pytest.mark.parametrize("domain", [Domain.interval(-1.0, 1.0),
                                    Domain.interval(2.0, 5.0),
                                    Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["unit", "offset", "disc"])
@pytest.mark.parametrize("complex_entries", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("lead", ["full", "singular"])
def test_inverted_pencil_matches_dense_solve(name, domain, complex_entries,
                                             lead):
    rng = np.random.default_rng(23)
    basis = basis_by_name(name, domain)
    for degree in (1, 4):
        P = random_matpoly(rng, basis, degree, 3, complex_entries)
        if lead == "singular":
            c = P.coeffs.copy()
            c[-1] = np.outer(c[-1][:, 0], c[-1][0])  # rank one
            P = MatrixPolynomial(basis, c)
        for mu in matpoly._shifts(domain):
            want = dense_inverted_pencil(P, mu)
            got = inverted_pencil(P, mu)
            assert got.dtype == want.dtype
            assert (np.max(np.abs(got - want))
                    <= 1e-10 * np.linalg.norm(want))


def inverted_pencil(P, mu):
    """_inverted_pencil at any shift mu, with its scalars from
    _pencil_table as the plan holds them."""
    return matpoly._inverted_pencil(P, mu, *matpoly._pencil_table(
        P.basis, P.degree, mu, P.coeffs.dtype))


def loop_pencil_table(P, mu):
    """W_0..W_K and phi_0(mu)..phi_K(mu) of _inverted_pencil from the
    scalar recurrence loop in the dtype of the coefficients, the
    recurrence and mu, as the solver computed them before its plans."""
    K = P.degree
    tab = P.basis.table(K - 1)
    A = P.coeffs
    if not np.any(A.imag):
        A = A.real
    gammas = np.array([g for row in tab.rows[:K] for _, g in row])
    T = np.zeros((K + 1, K + 1),
                 dtype=np.result_type(A, tab.alpha, tab.beta, gammas, mu))
    T[0, K] = 1.0
    for k in range(K):
        T[k + 1] = (tab.alpha[k] * mu + tab.beta[k]) * T[k]
        for j, g in tab.rows[k]:
            T[k + 1] += g * T[j - 1]
        if k < K - 1:
            T[k + 1, k] += tab.alpha[k]
    return T[:, :K], T[:, K]


def loop_inverted_pencil(P, mu):
    """_inverted_pencil with the scalar table computed in place in the
    coefficients' dtype, as it was before the table was cached."""
    K, N = P.degree, P.size
    tab = P.basis.table(K - 1)
    A = P.coeffs
    if not np.any(A.imag):
        A = A.real
    W, phi = loop_pencil_table(P, mu)
    rhs = -np.tensordot(W, A, axes=([0], [0]))
    rhs[K - 1] -= tab.alpha[K - 1] * A[K]
    Z0 = np.linalg.solve(np.tensordot(phi, A, axes=([0], [0])),
                         rhs.transpose(1, 0, 2).reshape(N, K * N))
    M = phi[:K, None, None] * Z0
    rows = np.arange(N)
    M.reshape(K, N, K, N)[:, rows, :, rows] += W[:K]
    return M.reshape(K * N, K * N)


def identical(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
@pytest.mark.parametrize("complex_entries", [False, True],
                         ids=["real", "complex"])
def test_pencil_table_is_the_loop_bitwise(name, complex_entries):
    rng = np.random.default_rng(24)
    for domain in (Domain.interval(-1.0, 1.0), Domain.interval(2.0, 5.0),
                   Domain.disc(0.2 + 0.1j, 1.5)):
        basis = basis_by_name(name, domain)
        for degree in (1, 2, 7):
            P = random_matpoly(rng, basis, degree, 3, complex_entries)
            for mu in matpoly._shifts(domain) + [0.3 - 0.45j]:
                want = loop_pencil_table(P, mu)
                got = matpoly._pencil_table(
                    basis, degree, mu, P.coeffs.dtype)
                assert all(map(identical, got, want))
                assert identical(inverted_pencil(P, mu),
                                 loop_inverted_pencil(P, mu))


def test_pencil_table_key_keeps_real_and_complex_apart(monkeypatch):
    # the plan is keyed on the coefficients' dtype: products with a real
    # table round differently from those with a complex one
    basis = DegreeGradedBasis.chebyshev()
    rng = np.random.default_rng(25)
    real = random_matpoly(rng, basis, 4, 3)
    cplx = random_matpoly(rng, basis, 4, 3, complex_entries=True)
    for P in (real, cplx, real):
        dtype = P.coeffs.dtype
        for mu, W, phi in matpoly._plan(basis, 4, 3, dtype)[0]:
            assert W.dtype == phi.dtype == dtype
            assert identical(matpoly._inverted_pencil(P, mu, W, phi),
                             loop_inverted_pencil(P, mu))
    # polyeig reads the table of its coefficients' dtype
    stacks = [random_matpoly(rng, basis, degree, 3, complex_entries)
              for degree in (1, 2, 3) for complex_entries in (False, True)
              for _ in range(4)]
    got = [polyeig(P)[0] for P in stacks]
    monkeypatch.setattr(matpoly, "_inverted_pencil",
                        lambda P, mu, *table: loop_inverted_pencil(P, mu))
    for P, lams in zip(stacks, got):
        assert identical(polyeig(P)[0], lams)
    for mu in (0.5, 0.5 + 0j):
        for P in (real, cplx, real):
            assert identical(inverted_pencil(P, mu),
                             loop_inverted_pencil(P, mu))


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
    right, left, residuals, _ = eigvecs_and_conditions(P, lams)
    for lam, v, w, r in zip(lams, right, left, residuals):
        assert abs(np.linalg.norm(v) - 1) <= 1e-12
        assert abs(np.linalg.norm(w) - 1) <= 1e-12
        assert r <= 1e-9 * scale
        M = matpoly_eval(P, lam)
        assert abs(r - np.linalg.norm(M @ v)) <= 1e-12 * scale
        assert abs(r - np.linalg.norm(w @ M)) <= 1e-12 * scale
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


def corpus_pencils():
    """M = (X - mu Y)^-1 Y at the first shift for trimmed resultants of
    the benchmark's solve shapes and of complex disc systems."""
    disc = DegreeGradedBasis.chebyshev(Domain.disc(0.1 - 0.2j, 1.2))
    shapes = [(3, 3, "cayley", "chebyshev"), (3, 3, "cayley", "legendre"),
              (2, 5, "cayley", "chebyshev"), (2, 5, "sylvester", "legendre"),
              (2, 3, "cayley", disc), (2, 3, "sylvester", disc)]
    build = {"cayley": cayley_resultant, "sylvester": sylvester_resultant}
    for k in range(12):
        d, n, method, basis = shapes[k % len(shapes)]
        sys_, _ = random_system_with_root(d, n, [1, k], basis)
        P = build[method](hide_variable(sys_)).matrix_poly
        work = MatrixPolynomial(P.basis,
                                P.coeffs[:matpoly._effective_degree(P) + 1])
        yield inverted_pencil(work, matpoly._shifts(P.basis.domain)[0])


def test_eigvals_equal_scipy_on_corpus_pencils():
    # numpy and scipy each bundle their own OpenBLAS, whose threaded
    # kernels may round differently; with one thread, as the benchmark
    # runs, their eigenvalues agree bit for bit
    code = ("import numpy as np, scipy.linalg\n"
            "from test_matpoly import corpus_pencils, identical\n"
            "print(sorted({(M.dtype.kind, identical(\n"
            "    np.linalg.eigvals(M).astype(complex, copy=False),\n"
            "    scipy.linalg.eigvals(M, check_finite=False)))\n"
            "    for M in corpus_pencils()}))")
    src = os.path.dirname(os.path.dirname(matpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(__file__)]), OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[('c', True), ('f', True)]"


def test_real_spectrum_gives_complex_eigenvalues(builtin):
    # every eigenvalue of this real P is real, so numpy's eigvals returns
    # a real array; polyeig still gives complex lams
    to_basis = {"monomial": lambda c: c,
                "chebyshev": np.polynomial.chebyshev.poly2cheb,
                "legendre": np.polynomial.legendre.poly2leg}[builtin.name]
    roots = np.array([[-0.6, 0.1, 0.45], [-0.3, 0.25, 0.7]])
    C = np.zeros((4, 2, 2))
    for i, r in enumerate(roots):
        C[:, i, i] = to_basis(np.polynomial.polynomial.polyfromroots(r))
    P = MatrixPolynomial(builtin, C)
    assert np.isrealobj(np.linalg.eigvals(inverted_pencil(
        P, matpoly._shifts(builtin.domain)[0])))
    lams, n_inf = polyeig(P)
    assert lams.dtype == complex and n_inf == 0
    match_nearest(lams, roots.ravel(), 1e-10)


def test_non_finite_pencil_moves_to_the_next_shift(monkeypatch):
    rng = np.random.default_rng(19)
    P = random_matpoly(rng, DegreeGradedBasis.chebyshev(), 3, 4)
    want = polyeig(P)
    shifts = []
    inverted = matpoly._inverted_pencil

    def poisoned_first(P, shift, *table):
        shifts.append(shift)
        M = inverted(P, shift, *table)
        if len(shifts) == 1:
            M[0, 0] = np.nan
        return M

    monkeypatch.setattr(matpoly, "_inverted_pencil", poisoned_first)
    lams, n_inf = polyeig(P)
    assert shifts == matpoly._shifts(P.basis.domain)[:2]
    assert n_inf == want[1] == 0
    match_nearest(lams, want[0], 1e-8)


def test_left_vectors_are_plain_transpose():
    # nonsymmetric matrix with complex eigenvalues: w^T P(lam) = 0 must
    # hold with a plain (unconjugated) transpose
    b = DegreeGradedBasis.monomial()
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    P = MatrixPolynomial(b, np.stack([-A, np.eye(2)]))
    lams = polyeig(P)[0]
    left = eigvecs_and_conditions(P, lams)[1]
    for lam, w in zip(lams, left):
        assert np.linalg.norm(w @ matpoly_eval(P, lam)) <= 1e-12


def test_eig_condition_simple_and_defective():
    b = DegreeGradedBasis.monomial()
    # P(lam) = diag(lam - 1, lam + 2): simple eigenvalues, kappa = 1
    P = MatrixPolynomial(
        b, np.stack([np.diag([-1.0, 2.0]), np.eye(2)]))
    kappas = eigvecs_and_conditions(P, polyeig(P)[0])[3]
    assert kappas == pytest.approx([1.0, 1.0], rel=1e-10)
    # Jordan block: defective eigenvalue reported as infinite
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    PJ = MatrixPolynomial(b, np.stack([-J, np.eye(2)]))
    assert np.any(np.isinf(eigvecs_and_conditions(PJ, polyeig(PJ)[0])[3]))


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
def test_batched_eigvecs_match_eigpair(name):
    rng = np.random.default_rng(12)
    P = random_matpoly(rng, basis_by_name(name), 3, 5, True)
    lams = polyeig(P)[0]
    right, left, residuals, kappas = eigvecs_and_conditions(P, lams)
    assert right.shape == left.shape == (len(lams), 5)
    for k, lam in enumerate(lams):
        v, w, residual = eigpair(P, lam)
        # unit vectors, equal up to a phase; residuals at roundoff level
        assert abs(np.vdot(v, right[k])) == pytest.approx(1, 1e-12)
        assert abs(np.vdot(w, left[k])) == pytest.approx(1, 1e-12)
        assert abs(residuals[k] - residual) <= 1e-13 * P.coeff_scale
        assert kappas[k] == pytest.approx(eig_condition(P, lam, v, w),
                                          rel=1e-12)


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
    want = [eig_condition(P, lam, *eigpair(P, lam)[:2]) for lam in lams]
    assert kappas[0] == want[0]
    assert kappas[1] == pytest.approx(want[1], rel=1e-12)
    assert eigvecs_and_conditions(P, lams[:0])[0].shape == (0, 3)


def test_singular_rows_take_svd_null_vectors():
    b = DegreeGradedBasis.monomial()
    # P(1) = diag(0, 3) and P(-2) = diag(-3, 0) have an exactly zero
    # pivot; the other points are regular
    P = MatrixPolynomial(b, np.stack([np.diag([-1.0, 2.0]), np.eye(2)]))
    # P(0) = -J for a Jordan block J: singular and defective
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    PJ = MatrixPolynomial(b, np.stack([-J, np.eye(2)]))
    for Q, lams, singular in (
            (P, np.array([0.3, 1.0, 0.5 + 0.2j, -2.0]), [1, 3]),
            (PJ, np.array([0.4, 0.0, -0.7j]), [1])):
        right, left, residuals, kappas = eigvecs_and_conditions(Q, lams)
        for k in singular:
            v, w, _ = eigpair(Q, lams[k])
            assert abs(np.vdot(v, right[k])) == pytest.approx(1, 1e-15)
            assert abs(np.vdot(w, left[k])) == pytest.approx(1, 1e-15)
            assert residuals[k] == 0.0
        regular = np.setdiff1d(np.arange(len(lams)), singular)
        alone = eigvecs_and_conditions(Q, lams[regular])
        for got, want in zip((right, left, residuals, kappas), alone):
            assert np.array_equal(got[regular], want)
    assert kappas[1] == np.inf  # the Jordan block's null vectors e1, e2


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
def test_eigvecs_take_no_svd_without_singular_rows(name, monkeypatch):
    rng = np.random.default_rng(14)
    P = random_matpoly(rng, basis_by_name(name), 3, 5, True)
    lams = polyeig(P)[0]

    def forbidden(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    kappas = eigvecs_and_conditions(P, lams)[3]
    assert np.all(np.isfinite(kappas))


def test_eigvecs_ignore_coefficient_scale(monkeypatch):
    # scaled by 2^-700 the inverse iterates are 2^700 times larger and
    # their norms overflow unless the rows are scaled first; at 2^-1000
    # the iterates themselves overflow and the SVD takes over
    rng = np.random.default_rng(16)
    P = random_matpoly(rng, basis_by_name("chebyshev"), 3, 4, True)
    lams = polyeig(P)[0]
    right, left, _, kappas = eigvecs_and_conditions(P, lams)
    svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for power, exact in ((-700, True), (-1000, False)):
        c = 2.0 ** power
        calls.clear()
        r, w, _, k = eigvecs_and_conditions(
            MatrixPolynomial(P.basis, c * P.coeffs), lams)
        assert bool(calls) != exact
        if exact:
            assert np.array_equal(r, right) and np.array_equal(w, left)
        for got, want in ((r, right), (w, left)):
            overlap = np.abs(np.einsum("mi,mi->m", got.conj(), want))
            assert np.allclose(overlap, 1.0, rtol=0, atol=1e-12)
        assert np.allclose(k * c, kappas, rtol=1e-12)


def borderline_matpoly(t):
    """P(lam) = lam B - C with P(0) singular, null vectors e_1 (right)
    and e_2 (left), and e_2^T P'(0) e_1 = t; ||P'||_2 is about 1 and
    ||P'||_F about sqrt(3)."""
    B = np.eye(3)
    B[1, 0] = t
    C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return MatrixPolynomial(DegreeGradedBasis.monomial(), np.stack([-C, B]))


def test_kappa_inf_decisions_match_full_svd_cutoff(monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    cutoff = 1e3 * np.finfo(float).eps
    # denominators just above and just below the 2-norm cutoff, both
    # below the Frobenius one: only singular values can decide them
    for t, finite in ((1.5 * cutoff, True), (0.7 * cutoff, False)):
        P = borderline_matpoly(t)
        calls.clear()
        right, left, _, kappas = eigvecs_and_conditions(P, np.array([0.0]))
        assert np.isfinite(kappas[0]) == finite
        assert kappas[0] == eig_condition(P, 0.0, right[0], left[0])
        assert (1, 3, 3) in calls  # the borderline row's ||P'||_2
    # rotated defective and random stacks against the reference
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    cases = [(MatrixPolynomial(DegreeGradedBasis.monomial(),
                               np.stack([-Q @ A @ Q.T, np.eye(3)])),
              np.array([0.0, -2.0, 1e-9]))]
    rng = np.random.default_rng(15)
    for name in ("monomial", "chebyshev", "custom"):
        P = random_matpoly(rng, basis_by_name(name), 3, 4, True)
        cases.append((P, polyeig(P)[0]))
    for P, lams in cases:
        right, left, _, kappas = eigvecs_and_conditions(P, lams)
        want = [eig_condition(P, lam, v, w)
                for lam, v, w in zip(lams, right, left)]
        assert np.array_equal(np.isinf(kappas), np.isinf(want))
        assert np.isinf(kappas[0]) == (P is cases[0][0])
        # the reference takes P' by Clenshaw; 1e-9 off the defective
        # eigenvalue the denominator cancels down to about 2e-9, so it
        # carries a relative rounding error of about eps / 2e-9
        assert np.allclose(kappas, want, rtol=1e-6)


# ----------------------------------------------------------------------
# Structured null-vector check
# ----------------------------------------------------------------------

def check_null_vectors(P, z, v, w):
    """_check_null_vectors with P(z) from matpoly_eval, as the structured
    eigenvector functions call it."""
    matpoly._check_null_vectors(P, z, matpoly_eval(P, z), v, w)


def test_null_vector_check_floors_scale_at_coeff_scale():
    b = DegreeGradedBasis.monomial()
    # P(lam) = (lam - 0.5) I + E with ||E|| = 1e-12: P(0.5) is tiny, and
    # e_1 leaves a residual far above 1e-7 ||P(0.5)|| but at rounding
    # level against the coefficients, so only the floor passes it
    E = 1e-12 * np.array([[1.0, 0.5], [-0.3, 0.2]])
    P = MatrixPolynomial(b, np.stack([-0.5 * np.eye(2) + E, np.eye(2)]))
    e1 = np.array([1.0, 0.0])
    assert np.linalg.norm(E @ e1) > 1e-7 * np.linalg.norm(E, 2)
    check_null_vectors(P, 0.5, e1, e1)
    # away from the eigenvalue the residual exceeds both scales
    with pytest.raises(StructureError, match="exceed 1e-7"):
        check_null_vectors(P, 0.3, e1, e1)


def test_null_vector_check_skips_floor_when_norm_passes(monkeypatch):
    b = DegreeGradedBasis.monomial()
    P = MatrixPolynomial(b, np.stack([np.diag([-1.0, 2.0]), np.eye(2)]))

    def forbidden(self):
        raise AssertionError("coeff_scale computed")

    monkeypatch.setattr(MatrixPolynomial, "coeff_scale", property(forbidden))
    e1 = np.array([1.0, 0.0])
    check_null_vectors(P, 1.0, e1, e1)  # P(1) = diag(0, 3)
    with pytest.raises(AssertionError, match="coeff_scale"):
        check_null_vectors(P, 0.5, e1, e1)


def svd_rule_raises(P, z, v, w):
    """Whether the residual rule fails with ||P(z)||_2 from an SVD every
    time: 1e-7 * ||P(z)||_2, floored by P.coeff_scale when that alone
    does not pass."""
    P0 = matpoly_eval(P, z)
    res_r = np.linalg.norm(P0 @ v) / np.linalg.norm(v)
    res_l = np.linalg.norm(P0.T @ w) / np.linalg.norm(w)
    scale = np.linalg.norm(P0, 2)
    if res_r > 1e-7 * scale or res_l > 1e-7 * scale:
        scale = max(scale, P.coeff_scale)
    return bool(res_r > 1e-7 * scale or res_l > 1e-7 * scale)


def null_vector_check_raises(P, z, v, w):
    try:
        check_null_vectors(P, z, v, w)
    except StructureError:
        return True
    return False


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "custom"])
def test_null_vector_check_matches_svd_rule_on_random_p(name):
    # P(z) made singular with a rank-one change of A_0 (phi_0 = 1), and
    # its null vectors perturbed by t across both thresholds
    rng = np.random.default_rng(40)
    basis = basis_by_name(name)
    decisions = []
    for size in (1, 3, 8):
        for degree in (0, 2, 5):
            P = random_matpoly(rng, basis, degree, size, complex_entries=True)
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            U, s, Vh = np.linalg.svd(matpoly_eval(P, z))
            coeffs = P.coeffs.copy()
            coeffs[0] -= s[-1] * np.outer(U[:, -1], Vh[-1])
            P = MatrixPolynomial(basis, coeffs)
            for t in np.logspace(-10, -5, 21):
                v = np.conj(Vh[-1]) + t * rng.standard_normal(size)
                w = np.conj(U[:, -1]) + t * rng.standard_normal(size)
                want = svd_rule_raises(P, z, v, w)
                assert null_vector_check_raises(P, z, v, w) == want
                decisions.append(want)
    assert any(decisions) and not all(decisions)


def test_null_vector_check_takes_svd_only_between_the_bounds(two_norm_calls):
    # P = diag(1, 0, ..., 0) with N = 16: ||P||_F / sqrt(N) = 1/4, and
    # ||P||_2 = coeff_scale = 1.  v = e_2 + c e_1 leaves the residual
    # about c: below 1e-7 / 4 the Frobenius bound passes it with no SVD,
    # between 1e-7 / 4 and 1e-7 only the 2-norm passes it, and above
    # 1e-7 it fails
    N = 16
    P = MatrixPolynomial(DegreeGradedBasis.chebyshev(),
                         np.diag([1.0] + [0.0] * (N - 1))[None])
    e1, e2 = np.eye(N)[:2]
    for c, raises, svd in ((1e-9, False, False), (2e-8, False, False),
                           (3e-8, False, True), (9e-8, False, True),
                           (1.1e-7, True, True), (1e-6, True, True)):
        v = e2 + c * e1
        assert svd_rule_raises(P, 0.3, v, e2) == raises
        two_norm_calls.clear()
        assert null_vector_check_raises(P, 0.3, v, e2) == raises
        assert bool(two_norm_calls) == svd


def test_null_vector_check_fails_nan_residual():
    P = MatrixPolynomial(DegreeGradedBasis.monomial(),
                         np.stack([np.diag([-1.0, 2.0]), np.eye(2)]))
    e1 = np.array([1.0, 0.0])
    nan = np.array([np.nan, 0.0])
    check_null_vectors(P, 1.0, e1, e1)  # P(1) = diag(0, 3)
    for v, w in ((nan, e1), (e1, nan)):
        with pytest.raises(StructureError, match="nan"):
            check_null_vectors(P, 1.0, v, w)


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


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_matpoly_from_json_rejects_non_finite(part, bad):
    rng = np.random.default_rng(18)
    P = random_matpoly(rng, DegreeGradedBasis.legendre(), 2, 3,
                       complex_entries=True)
    # Python's json reads NaN and Infinity
    obj = json.loads(json.dumps(matpoly_to_json(P)))
    obj["coeff_matrices"][1][part][2][0] = bad
    with pytest.raises(ValueError, match=r"at index \(1, 2, 0\)$"):
        matpoly_from_json(obj)


def _json_with_degree(degree):
    obj = matpoly_to_json(MatrixPolynomial(DegreeGradedBasis.monomial(),
                                           np.ones((3, 2, 2))))
    return dict(obj, degree=degree)


@pytest.mark.parametrize("call,match", [
    (lambda: MatrixPolynomial(DegreeGradedBasis.monomial(),
                              np.zeros((0, 2, 2))),
     "at least the constant coefficient"),
    (lambda: matpoly_from_json(_json_with_degree(5)),
     "degree field disagrees"),
], ids=["no-coefficients", "json-degree"])
def test_input_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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
    assert np.all(np.isfinite(lams))
    assert np.all(eigvecs_and_conditions(P, lams)[2] <= 1e-12)
    for x in (0.3, -0.7 + 0.2j):
        got, ok = _component_from_vector(basis_eval_all(b, 4, x)[None], b)
        assert ok and abs(got - x) <= 1e-13


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
    mu = matpoly._shifts(domain)[0]
    roots = np.array([mu, mu - 0.3, mu - 0.8])
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    P = MatrixPolynomial(basis, coeffs.reshape(-1, 1, 1))
    shifts = []
    inverted = matpoly._inverted_pencil

    def recording(P, shift, *table):
        shifts.append(shift)
        return inverted(P, shift, *table)

    monkeypatch.setattr(matpoly, "_inverted_pencil", recording)
    lams, n_inf = polyeig(P)
    assert shifts == matpoly._shifts(domain)[:2]
    assert n_inf == 0
    match_nearest(lams, roots, 1e-10)
    # with the first shift as the only one, polyeig gives up; the plan
    # caches the shifts, so it is rebuilt after each change of offsets
    monkeypatch.setattr(matpoly, "_SHIFT_OFFSETS",
                        matpoly._SHIFT_OFFSETS[:1])
    matpoly._plan.cache_clear()
    try:
        with pytest.raises(EigenSolveError, match="shift"):
            polyeig(P)
    finally:
        monkeypatch.undo()
        matpoly._plan.cache_clear()

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
from resultant_lab.basis import (DegreeGradedBasis, Domain,
                                 _value_derivative_table, basis_eval_all,
                                 basis_eval_deriv_all, basis_from_json,
                                 clenshaw_shifts, divided_difference)
from resultant_lab.matpoly import (EigenSolveError, MatrixPolynomial,
                                   NotRegularError, StructureError,
                                   eigvecs, matpoly_eval, matpoly_to_json,
                                   polyeig)
from resultant_lab.cayley import cayley_resultant
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem,
                                     hide_variable, mp_eval)
from resultant_lab.rootfinder import (_component_from_fibers,
                                      family_orthogonal_quadratic,
                                      random_system_with_root)
from resultant_lab.sylvester import sylvester_resultant
from conftest import custom_basis, dense_gamma_basis


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


def svd_eigvecs(P, lams):
    """eigvecs as it was before inverse iteration: the vectors of the
    smallest singular value from one stacked SVD of P(lam), and that
    value as the residual."""
    U, s, Vh = np.linalg.svd(matpoly_eval(P, lams))
    return np.conj(Vh[:, -1]), np.conj(U[:, :, -1]), s[:, -1]


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


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
def test_single_point_evaluates_as_a_one_element_array(name):
    # one forward recurrence serves every point set: at a single point z
    # the basis values, and P(z) from them, are bitwise those of the
    # one-element array [z], real or complex; the custom basis has
    # nonzero beta and every gamma_{k,j}, in 16 table rows
    rng = np.random.default_rng(44)
    basis = (custom_basis(1.0 + 0.1 * rng.standard_normal(16),
                          0.1 * rng.standard_normal(16),
                          [0.1 * rng.standard_normal(k) for k in range(1, 16)])
             if name == "custom" else DegreeGradedBasis(name))
    points = [0.37, np.float64(-0.81), 1.0, 0.3 - 0.2j, -0.55 + 0.7j,
              0.2 - 0.45j, np.complex128(0.9 + 0.1j)]
    for kmax in (0, 1, 5, 9, 16):
        P = random_matpoly(rng, basis, kmax, 3, complex_entries=True)
        for z in points:
            got = basis_eval_all(basis, kmax, z)
            assert identical(got, basis_eval_all(basis, kmax, [z])[:, 0])
            assert identical(got, _value_derivative_table(basis, kmax,
                                                          z)[:, 0])
            assert identical(matpoly_eval(P, z), matpoly_eval(P, [z])[0])


def _norm_inputs():
    """Real and complex vectors, matrices and stacks, contiguous and
    strided, with zero, inf, NaN, huge and tiny entries."""
    rng = np.random.default_rng(32)
    real = rng.standard_normal((4, 5, 6))
    cases = {"real part": (real + 1j * real[::-1]).real,
             "imag part, transposed": (real + 1j * real[::-1])[0].imag.T}
    for kind, a in (("real", real),
                    ("complex", real + 1j * rng.standard_normal(real.shape))):
        cases.update({
            f"{kind} vector": a[0, 0],
            f"{kind} strided vector": a[1, :, 2],
            f"{kind} matrix": a[0],
            f"{kind} transposed matrix": a[0].T,
            f"{kind} stack": a,
            f"{kind} transposed stack": a.transpose(0, 2, 1),
            f"{kind} sliced stack": a[:, ::2, 1::2],
            f"{kind} zero": np.zeros_like(a[0]),
            f"{kind} huge": a[0] * 1e200,
            f"{kind} tiny": a[0] * 1e-200})
        for name, bad in (("inf", np.inf), ("-inf", -np.inf),
                          ("NaN", np.nan), ("complex inf", np.inf * 1j),
                          ("complex NaN", complex(np.inf, np.nan))):
            if kind == "real" and isinstance(bad, complex):
                continue
            m = a[0].copy()
            m[2, 3] = bad
            cases[f"{kind} with {name}"] = m
    return cases


@pytest.mark.parametrize("case", sorted(_norm_inputs()))
def test_norm_helpers_are_numpy_norms_bitwise(case):
    # the private norms run np.linalg.norm's own formulas without its
    # wrapper: the whole-array norm and the norms along the last axis
    x = _norm_inputs()[case]
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = ((matpoly._norm(x), np.linalg.norm(x)),
                 (matpoly._row_norms(x), np.linalg.norm(x, axis=-1)))
    for got, want in pairs:
        assert identical(np.asarray(got), np.asarray(want))


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


def trimmed(P):
    """P without its roundoff-sized leading coefficients, as polyeig
    works on it."""
    return MatrixPolynomial(P.basis,
                            P.coeffs[:matpoly._effective_degree(P) + 1])


def shift_decision(P):
    """The regularity decision one shift at a time: whether some
    P(mu) / sigma_max(P(mu)) of the trimmed P has its smallest singular
    value above 1e-12 at a shift mu of polyeig, each from its own
    np.linalg.svd."""
    work = trimmed(P)
    for mu in matpoly._shifts(P.basis.domain):
        s = np.linalg.svd(matpoly_eval(work, mu), compute_uv=False)
        if s[-1] > 1e-12 * s[0]:
            return True
    return False


def polyeig_decision(P):
    """Whether polyeig takes P as regular: it does unless it raises
    NotRegularError."""
    try:
        polyeig(P)
    except NotRegularError:
        return False
    return True


def record_shifts(monkeypatch):
    """Two lists that fill as polyeig runs: the shifts where it evaluates
    P, contracting the coefficients with the phi(mu) of its plan, and the
    shifts where it forms the inverted pencil."""
    evaluated, inverted = [], []
    plan, contract = matpoly._plan, matpoly._contract
    invert = matpoly._inverted_pencil
    # (phi, mu) by id(phi); holding phi keeps its id from being reused
    planned = {}

    def planning(*key):
        shifts, start = plan(*key)
        planned.update((id(phi), (phi, mu)) for mu, _, phi in shifts)
        return shifts, start

    planning.cache_clear = plan.cache_clear

    def contracting(phis, A):
        if id(phis) in planned:
            evaluated.append(planned[id(phis)][1])
        return contract(phis, A)

    def inverting(P, mu, *table):
        inverted.append(mu)
        return invert(P, mu, *table)

    monkeypatch.setattr(matpoly, "_plan", planning)
    monkeypatch.setattr(matpoly, "_contract", contracting)
    monkeypatch.setattr(matpoly, "_inverted_pencil", inverting)
    return evaluated, inverted


def singular_at_shifts(basis, passing):
    """diag(1, q) of degree 2 with q zero at every shift of polyeig but
    the one at index passing, so that only that shift passes the
    regularity witness."""
    shifts = matpoly._shifts(basis.domain)
    phis = basis_eval_all(basis, 2, np.array(shifts))
    C = np.zeros((3, 2, 2), dtype=complex)
    C[0, 0, 0] = 1.0
    q = np.linalg.svd(np.delete(phis, passing, axis=1).T)[2][-1].conj()
    C[:, 1, 1] = q
    return MatrixPolynomial(basis, C)


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "custom"])
@pytest.mark.parametrize("domain", [None, Domain.disc(0.2 + 0.1j, 1.5)],
                         ids=["interval", "disc"])
def test_regularity_probes_match_pointwise(name, domain, monkeypatch):
    # the shifts are the regularity probes: polyeig evaluates P at the
    # shifts in order, up to the first one that passes, and nowhere else
    basis = basis_by_name(name, domain)
    shifts = matpoly._shifts(basis.domain)
    assert np.isrealobj(np.array(shifts)) == (domain is None)
    P = random_matpoly(np.random.default_rng(8), basis, 3, 5, True)
    evaluated, inverted = record_shifts(monkeypatch)
    polyeig(P)
    assert evaluated == inverted == shifts[:1] and shift_decision(P)
    # diag(1, q) with q vanishing at two shifts: singular there, so the
    # remaining one alone decides
    for k in range(3):
        Q = singular_at_shifts(basis, k)
        sv = np.linalg.svd(matpoly_eval(Q, np.array(shifts)),
                           compute_uv=False)
        passes = sv[:, -1] > 1e-12 * sv[:, 0]
        assert list(passes) == [j == k for j in range(3)]
        evaluated.clear()
        inverted.clear()
        lams, n_inf = polyeig(Q)
        assert evaluated == shifts[:k + 1] and inverted == [shifts[k]]
        assert shift_decision(Q) and n_inf == 2
        match_nearest(lams, np.delete(shifts, k), 1e-10)


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
        assert polyeig_decision(P) and shift_decision(P)
        # a zero column in every A_i makes P(z) singular exactly; t E
        # moves the singular value ratios across the threshold
        C = P.coeffs.copy()
        C[:, :, -1] = 0.0
        E = rng.standard_normal(C.shape)
        for t in np.concatenate([[0.0], 10.0 ** np.arange(-16.0, 0.0, 0.25)]):
            Q = MatrixPolynomial(basis, C + t * E)
            decisions.append(polyeig_decision(Q))
            assert decisions[-1] == shift_decision(Q)
    assert True in decisions and False in decisions
    Z = MatrixPolynomial(basis, np.zeros((3, 4, 4)))
    assert not polyeig_decision(Z) and not shift_decision(Z)


@pytest.mark.parametrize("sigma", [0.5, 1e-3])
def test_orthogonal_family_stays_not_regular(sigma):
    # its Cayley resultant vanishes identically in the hidden variable
    sys_ = family_orthogonal_quadratic(3, sigma)
    P = cayley_resultant(hide_variable(sys_)).matrix_poly
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
    # the benchmark's solve shapes stay regular under both constructions,
    # witnessed at the first shift
    for k in range(16):
        basis = ("chebyshev", "legendre")[k % 2]
        sys3, _ = random_system_with_root(3, 3, [1, k], basis)
        sys2, _ = random_system_with_root(2, 5, [1, k], basis)
        for P in (cayley_resultant(hide_variable(sys3, k % 3)).matrix_poly,
                  cayley_resultant(hide_variable(sys2, k % 2)).matrix_poly,
                  sylvester_resultant(hide_variable(sys2, k % 2)).matrix_poly):
            mu = matpoly._shifts(P.basis.domain)[0]
            sv = np.linalg.svd(matpoly_eval(trimmed(P), mu), compute_uv=False)
            assert sv[-1] > 1e-12 * sv[0]
            polyeig(P)
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


def stacked_shift_decision(P):
    """The regularity rule from one stacked SVD of the trimmed P at every
    shift of polyeig, which stops at the first shift that passes."""
    shifts = np.array(matpoly._shifts(P.basis.domain))
    sv = np.linalg.svd(matpoly_eval(trimmed(P), shifts), compute_uv=False)
    return bool(np.any(sv[:, -1] > 1e-12 * sv[:, 0]))


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
    cases.append(singular_at_shifts(basis, 2))
    cases.append(MatrixPolynomial(basis, np.zeros((3, 4, 4))))
    decisions = [polyeig_decision(P) for P in cases]
    assert decisions == [stacked_shift_decision(P) for P in cases]
    assert decisions == [True] * 6 + [False, True, False]


def test_regular_p_takes_one_svd(builtin, monkeypatch):
    rng = np.random.default_rng(16)
    P = random_matpoly(rng, builtin, 4, 6, True)
    Q = singular_at_shifts(builtin, 2)
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    polyeig(P)
    assert calls == [(6, 6)]
    # only the third shift passes, so all three are taken, and Q is
    # solved there
    calls.clear()
    lams, n_inf = polyeig(Q)
    assert calls == [(2, 2)] * 3 and n_inf == 2
    match_nearest(lams, matpoly._shifts(builtin.domain)[:2], 1e-10)


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
    """_inverted_pencil at any shift mu, with P(mu) from matpoly_eval and
    its scalars from _pencil_table as the plan holds them."""
    return matpoly._inverted_pencil(
        P, mu, matpoly_eval(P, mu),
        *matpoly._pencil_table(P.basis, P.degree, mu, P.coeffs.dtype))


def loop_pencil_table(P, mu):
    """W and phi(mu) of _inverted_pencil from the two recurrences run in
    place: the Clenshaw shifts B[k, i] = b_k[phi_i](mu) of every phi_i,
    one row k at a time from B[K] = e_K down, in the dtype of the
    coefficients, the recurrence and mu, and the forward values
    phi_k(mu) in that of the recurrence and mu."""
    K = P.degree
    tab = P.basis.table(K - 1)
    eye = np.eye(K + 1, dtype=P.coeffs.dtype)
    B = np.zeros((K + 2, K + 1),
                 dtype=np.result_type(P.coeffs, tab.dtype, mu))
    B[K] = eye[K]
    for k in range(K - 1, -1, -1):
        B[k] = (tab.alpha[k] * mu + tab.beta[k]) * B[k + 1]
        B[k] += eye[k]
        for j, g in tab.cols[k + 1]:
            if j >= K:
                break
            B[k] += g * B[j + 1]
    # a one-element array: a single point runs in numpy's array loops
    x = np.asarray([mu])
    phi = np.empty((K + 1, 1), dtype=np.result_type(x, tab.dtype))
    phi[0] = 1.0
    for k in range(K):
        phi[k + 1] = (tab.alpha[k] * x + tab.beta[k]) * phi[k]
        for j, g in tab.rows[k]:
            phi[k + 1] += g * phi[j - 1]
    return B[1:K + 1].T * tab.alpha[:K], phi[:, 0]


def loop_inverted_pencil(P, mu):
    """_inverted_pencil with the scalar table computed in place
    (loop_pencil_table), as it would be without the plan."""
    K, N = P.degree, P.size
    A = P.coeffs
    W, phi = loop_pencil_table(P, mu)
    rhs = -np.tensordot(W, A, axes=([0], [0]))
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
            assert W.dtype == dtype and phi.dtype == np.float64
            assert identical(matpoly._inverted_pencil(
                P, mu, matpoly_eval(P, mu), W, phi),
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


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                         ids=["real", "complex"])
@pytest.mark.parametrize("K", [1, 3, 7])
def test_pencil_scalars_are_divided_differences(name, dtype, K):
    # row i of W holds the divided difference of phi_i at mu in the
    # basis, (phi_i(lam) - phi_i(mu)) / (lam - mu) at every lam, and
    # phi(mu) is the column basis_eval_all gives matpoly_eval
    basis = basis_by_name(name)
    lams = [0.7, -0.9 + 0.3j, 1.4j]
    for mu in matpoly._shifts(basis.domain) + [0.3 - 0.45j]:
        W, phi = matpoly._pencil_table(basis, K, mu, np.dtype(dtype))
        assert W.shape == (K + 1, K)
        assert identical(phi, basis_eval_all(basis, K, mu))
        for lam in lams + [mu]:
            got = W @ basis_eval_all(basis, K - 1, lam)
            want = np.array([divided_difference(basis, e, lam, mu)
                             for e in np.eye(K + 1)])
            assert np.all(np.abs(got - want) <= 1e-13 * (1 + np.abs(want)))


def record_solves(monkeypatch):
    """The matrices np.linalg.solve and np.linalg.svd are given, as
    ("solve" or "svd", copy) in call order."""
    seen = []
    solve, svd = np.linalg.solve, np.linalg.svd

    def solving(a, b):
        seen.append(("solve", np.array(a)))
        return solve(a, b)

    def decomposing(a, *args, **kwargs):
        seen.append(("svd", np.array(a)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", solving)
    monkeypatch.setattr(np.linalg, "svd", decomposing)
    return seen


@pytest.mark.parametrize("name", ["chebyshev", "legendre", "custom"])
def test_witness_and_solve_share_one_p_of_mu(name, monkeypatch):
    # the P(mu) whose singular values witness regularity is, bit for
    # bit, the one _inverted_pencil factors, at every shift of the plan
    # and in polyeig
    rng = np.random.default_rng(26)
    seen = record_solves(monkeypatch)
    for domain in (None, Domain.disc(0.2 + 0.1j, 1.5)):
        basis = basis_by_name(name, domain)
        for complex_entries in (False, True):
            P = random_matpoly(rng, basis, 5, 6, complex_entries)
            for mu, W, phi in matpoly._plan(basis, 5, 6,
                                            P.coeffs.dtype)[0]:
                seen.clear()
                matpoly._inverted_pencil(P, mu, matpoly_eval(P, mu), W, phi)
                assert identical(seen[0][1], matpoly_eval(P, mu))
            seen.clear()
            polyeig(P)
            assert [kind for kind, _ in seen] == ["svd", "solve"]
            assert identical(seen[0][1], seen[1][1])


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
    right, left, residuals = eigvecs(P, lams)
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
    left = eigvecs(P, lams)[1]
    for lam, w in zip(lams, left):
        assert np.linalg.norm(w @ matpoly_eval(P, lam)) <= 1e-12


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
def test_batched_eigvecs_match_eigpair(name):
    rng = np.random.default_rng(12)
    P = random_matpoly(rng, basis_by_name(name), 3, 5, True)
    lams = polyeig(P)[0]
    right, left, residuals = eigvecs(P, lams)
    assert right.shape == left.shape == (len(lams), 5)
    for k, lam in enumerate(lams):
        v, w, residual = eigpair(P, lam)
        # unit vectors, equal up to a phase; residuals at roundoff level
        assert abs(np.vdot(v, right[k])) == pytest.approx(1, 1e-12)
        assert abs(np.vdot(w, left[k])) == pytest.approx(1, 1e-12)
        assert abs(residuals[k] - residual) <= 1e-13 * P.coeff_scale


def test_batched_eigvecs_flag_defective_like_eig_condition():
    b = DegreeGradedBasis.monomial()
    # diag(Jordan block at 0, -2) in a rotated frame: lam = 0 is
    # defective, and its vectors are still the null vectors of P(0);
    # condition numbers are measured at roots, not here
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    P = MatrixPolynomial(b, np.stack([-Q @ A @ Q.T, np.eye(3)]))
    lams = np.array([0.0, -2.0])
    right, left, residuals = eigvecs(P, lams)
    for k, lam in enumerate(lams):
        v, w, residual = eigpair(P, lam)
        assert abs(np.vdot(v, right[k])) == pytest.approx(1, 1e-12)
        assert abs(np.vdot(w, left[k])) == pytest.approx(1, 1e-12)
        assert residuals[k] <= 1e-14
    assert [a.shape for a in eigvecs(P, lams[:0])] == [(0, 3), (0, 3),
                                                       (0,)]


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
        right, left, residuals = eigvecs(Q, lams)
        for k in singular:
            v, w, _ = eigpair(Q, lams[k])
            assert abs(np.vdot(v, right[k])) == pytest.approx(1, 1e-15)
            assert abs(np.vdot(w, left[k])) == pytest.approx(1, 1e-15)
            assert residuals[k] == 0.0
        regular = np.setdiff1d(np.arange(len(lams)), singular)
        alone = eigvecs(Q, lams[regular])
        for got, want in zip((right, left, residuals), alone):
            assert np.array_equal(got[regular], want)


@pytest.mark.parametrize("name", ["monomial", "chebyshev", "legendre",
                                  "custom"])
def test_eigvecs_take_no_svd_without_singular_rows(name, monkeypatch):
    rng = np.random.default_rng(14)
    P = random_matpoly(rng, basis_by_name(name), 3, 5, True)
    lams = polyeig(P)[0]

    def forbidden(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    right, left, residuals = eigvecs(P, lams)
    assert np.all(residuals <= 1e-9 * P.coeff_scale)


def test_eigvecs_ignore_coefficient_scale(monkeypatch):
    # scaled by 2^-700 the inverse iterates are 2^700 times larger and
    # their norms overflow unless the rows are scaled first; at 2^-1000
    # the iterates themselves overflow and the SVD takes over
    rng = np.random.default_rng(16)
    P = random_matpoly(rng, basis_by_name("chebyshev"), 3, 4, True)
    lams = polyeig(P)[0]
    right, left, _ = eigvecs(P, lams)
    svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for power, exact in ((-700, True), (-1000, False)):
        c = 2.0 ** power
        calls.clear()
        r, w, _ = eigvecs(MatrixPolynomial(P.basis, c * P.coeffs), lams)
        assert bool(calls) != exact
        if exact:
            assert np.array_equal(r, right) and np.array_equal(w, left)
        for got, want in ((r, right), (w, left)):
            overlap = np.abs(np.einsum("mi,mi->m", got.conj(), want))
            assert np.allclose(overlap, 1.0, rtol=0, atol=1e-12)


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

def json_coeffs(obj):
    """The coefficient stack written in a matpoly_to_json object, each
    matrix from its real and imaginary parts."""
    return np.array([np.array(m["real"]) + 1j * np.array(m["imag"])
                     for m in obj["coeff_matrices"]])


def test_matpoly_json_roundtrip(builtin):
    rng = np.random.default_rng(9)
    P = random_matpoly(rng, builtin, 2, 3, complex_entries=True)
    obj = json.loads(json.dumps(matpoly_to_json(P)))
    assert basis_from_json(obj["basis"]) == builtin
    assert (obj["size"], obj["degree"]) == (3, 2)
    assert np.array_equal(json_coeffs(obj), P.coeffs)


@pytest.mark.parametrize("call,match", [
    (lambda: MatrixPolynomial(DegreeGradedBasis.monomial(),
                              np.zeros((0, 2, 2))),
     "at least the constant coefficient"),
], ids=["no-coefficients"])
def test_input_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_polyeig_with_dense_gamma_basis():
    # gamma_{2,1} and gamma_{3,2} sit off the band, so linearize and the
    # component recovery both read entries a three-term basis never has
    gamma = [[0.0], [0.5, 0.0], [0.0, 0.3, 0.0], [0.0] * 4]
    b = custom_basis([1.0] * 5, [0.0] * 5, gamma)
    rng = np.random.default_rng(21)
    c = rng.standard_normal((5, 3, 3))
    c[4] = np.eye(3)  # monic, so every eigenvalue stays moderate
    P = MatrixPolynomial(b, c)
    lams, n_inf = polyeig(P)
    assert len(lams) == 12 and n_inf == 0
    assert np.all(np.isfinite(lams))
    assert np.all(eigvecs(P, lams)[2] <= 1e-12)
    for x in (0.3, -0.7 + 0.2j):
        got, ok = _component_from_fibers(
            basis_eval_all(b, 4, x)[None, :, None], b)
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
    # P = diag(p, r) with a root of p at the first shift: P(mu) is
    # numerically singular there, so the regularity witness passes over
    # mu before any pencil is formed, and the second shift finds every
    # root; r has its roots two radii away, so r(mu) is of order one
    basis = DegreeGradedBasis.monomial(domain)
    shifts = matpoly._shifts(domain)
    far = -2 * domain.radius

    def diag_p_r(roots):
        C = np.zeros((4, 2, 2), dtype=np.result_type(*roots))
        C[:, 0, 0] = np.polynomial.polynomial.polyfromroots(roots)
        C[:, 1, 1] = np.polynomial.polynomial.polyfromroots(roots + far)
        return MatrixPolynomial(basis, C), np.concatenate([roots,
                                                           roots + far])

    evaluated, inverted = record_shifts(monkeypatch)
    P, roots = diag_p_r(np.array([shifts[0], shifts[0] - 0.3,
                                  shifts[0] - 0.8]))
    lams, n_inf = polyeig(P)
    assert evaluated == shifts[:2] and inverted == shifts[1:2]
    assert n_inf == 0
    match_nearest(lams, roots, 1e-10)
    # a root 1e-8 radius off the first shift leaves P(mu) regular, and
    # the pencil's eigenvalue next to mu sends polyeig to the next shift
    near, near_roots = diag_p_r(roots[:3] + 1e-8 * domain.radius)
    evaluated.clear()
    inverted.clear()
    lams, n_inf = polyeig(near)
    assert evaluated == inverted == shifts[:2]
    assert n_inf == 0
    match_nearest(lams, near_roots, 1e-10)
    # with the first shift as the only one, polyeig gives up; the plan
    # caches the shifts, so it is rebuilt after each change of offsets
    try:
        monkeypatch.setattr(matpoly, "_SHIFT_OFFSETS",
                            matpoly._SHIFT_OFFSETS[:1])
        matpoly._plan.cache_clear()
        with pytest.raises(NotRegularError, match="shift"):
            polyeig(P)
        with pytest.raises(EigenSolveError, match="no usable shift"):
            polyeig(near)
        # the boundary of the witness: a 1 x 1 P has the singular value
        # ratio 1 unless P(mu) = 0, and with dyadic shifts this cubic
        # vanishes exactly at each of them, so polyeig raises
        # NotRegularError for a regular P
        monkeypatch.setattr(matpoly, "_SHIFT_OFFSETS", (-0.75, -0.5, 0.625))
        matpoly._plan.cache_clear()
        shifts = matpoly._shifts(domain)
        cubic = MatrixPolynomial(basis, np.polynomial.polynomial.polyfromroots(
            shifts).reshape(-1, 1, 1))
        assert all(matpoly_eval(cubic, mu) == 0.0 for mu in shifts)
        assert matpoly_eval(cubic, domain.center) != 0.0
        with pytest.raises(NotRegularError, match="every shift"):
            polyeig(cubic)
    finally:
        monkeypatch.undo()
        matpoly._plan.cache_clear()

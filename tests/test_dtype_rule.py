"""The dtype rule: an array is float64 when no entry has an imaginary
part and complex128 otherwise, applied where data enters.

A real system on an interval is solved in real arithmetic.  Multiplying
polynomial c by a unit-modulus constant exp(i theta_c) keeps its roots
but makes every coefficient complex, so the complex path can be checked
against the real one on the same problems.
"""

import numpy as np
import pytest

from resultant_lab.basis import (DegreeGradedBasis, Domain, basis_eval_all,
                                 basis_eval_deriv_all)
from resultant_lab.cayley import cayley_resultant
from resultant_lab.matpoly import MatrixPolynomial, eigvecs, polyeig
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem, _demote,
                                     hide_variable)
from resultant_lab.rootfinder import (condition_at_root, newton_polish,
                                      random_system_with_root, solve_system)
from resultant_lab.sylvester import sylvester_resultant
from conftest import custom_basis, report_fields

BASES = ("monomial", "chebyshev", "legendre")

# (d, degree, method) of the differential corpus: the benchmark's solve
# shapes
SHAPES = ((2, 5, "cayley"), (2, 5, "sylvester"), (3, 3, "cayley"))


def rotated(sys_, seed):
    """sys_ with polynomial c multiplied by exp(i theta_c), theta_c
    uniform in [0, 2 pi): the same roots, complex coefficients."""
    theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, sys_.dim)
    return PolynomialSystem(tuple(
        MultiPoly(p.basis, p.dim, p.coeffs * np.exp(1j * t))
        for p, t in zip(sys_.polys, theta)))


def in_domain(report):
    """Accepted roots with every component in [-1, 1] to within 1e-8."""
    return [r for r in report.accepted
            if np.all(np.abs(r.x.imag) <= 1e-8)
            and np.all(np.abs(r.x.real) <= 1 + 1e-8)]


def differential_cases():
    for basis in BASES:
        for d, n, method in SHAPES:
            for k in range(3):
                yield d, n, method, basis, [21, d, k]


@pytest.mark.parametrize("d, n, method, basis, seed",
                         list(differential_cases()))
def test_complex_path_agrees_with_real_path(d, n, method, basis, seed):
    sys_, root = random_system_with_root(d, n, seed, basis)
    turned = rotated(sys_, seed)
    assert sys_.polys[0].coeffs.dtype == np.float64
    assert turned.polys[0].coeffs.dtype == np.complex128
    real, cplx = solve_system(sys_, method), solve_system(turned, method)
    pencil = real.resultant_size * (real.n_eigenvalues + real.n_infinite)
    assert cplx.resultant_size * (cplx.n_eigenvalues
                                  + cplx.n_infinite) == pencil
    for rep in (real, cplx):
        assert any(np.max(np.abs(r.x - root)) <= 1e-8 * (1 + np.max(
            np.abs(root))) for r in rep.accepted)
    # the in-domain accepted sets match one to one, each root within a
    # tolerance scaled by its root condition number, and the matched
    # records report one kappa_eig
    got, want = in_domain(cplx), in_domain(real)
    assert len(got) == len(want)
    for r in want:
        tol = 1e-12 * max(1.0, r.root_condition) * (1 + np.max(np.abs(r.x)))
        g = min(got, key=lambda g: np.max(np.abs(g.x - r.x)))
        assert np.max(np.abs(g.x - r.x)) <= tol
        assert abs(g.eig_condition - r.eig_condition) \
            <= 1e-10 * r.eig_condition
    a = condition_at_root(sys_, root, method)
    b = condition_at_root(turned, root, method)
    # kappa_eig is invariant; rayleigh and det J both scale by the
    # product of the unit-modulus constants
    assert abs(b.eig_condition - a.eig_condition) <= 1e-10 * a.eig_condition
    ratio_a = a.rayleigh / a.jacobian_det
    ratio_b = b.rayleigh / b.jacobian_det
    assert abs(ratio_b - ratio_a) <= 1e-10 * abs(ratio_a)
    assert abs(b.root_condition - a.root_condition) \
        <= 1e-10 * a.root_condition


def svd_dtypes(monkeypatch):
    """A list that collects the dtype of every array passed to
    np.linalg.svd."""
    dtypes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return dtypes


def test_real_problems_run_in_real_arithmetic(builtin, monkeypatch):
    dtypes = svd_dtypes(monkeypatch)
    for d, n, method in SHAPES:
        sys_, root = random_system_with_root(d, n, [22, d], builtin)
        hv = hide_variable(sys_)
        build = cayley_resultant if method == "cayley" else \
            sylvester_resultant
        P = build(hv).matrix_poly
        assert P.coeffs.dtype == np.float64
        # the regularity witness takes its SVD of P at a real shift
        dtypes.clear()
        lams = polyeig(P)[0]
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}
        kept = lams[lams.imag == 0.0][:4]
        assert len(kept)
        right, left, _ = eigvecs(P, kept.real)
        assert right.dtype == left.dtype == np.float64


def test_disc_domain_and_complex_coefficients_run_in_complex(monkeypatch):
    dtypes = svd_dtypes(monkeypatch)
    disc = DegreeGradedBasis.chebyshev(Domain.disc(0.1, 1.2))
    sys_, _ = random_system_with_root(2, 3, 23, disc)
    # the coefficients are real, the nodes and shifts on the disc are not
    assert sys_.polys[0].coeffs.dtype == np.float64
    for build in (cayley_resultant, sylvester_resultant):
        P = build(hide_variable(sys_)).matrix_poly
        assert P.coeffs.dtype == np.complex128
        dtypes.clear()
        polyeig(P)
        assert dtypes and set(dtypes) == {np.dtype(np.complex128)}
    cheb = DegreeGradedBasis.chebyshev()
    turned = rotated(random_system_with_root(2, 3, 23, cheb)[0], 23)
    for build in (cayley_resultant, sylvester_resultant):
        P = build(hide_variable(turned)).matrix_poly
        assert P.coeffs.dtype == np.complex128
        dtypes.clear()
        polyeig(P)
        assert dtypes and set(dtypes) == {np.dtype(np.complex128)}
        right = eigvecs(P, np.array([0.25]))[0]
        assert right.dtype == np.complex128


def test_float_and_complex_typed_input_give_bitwise_equal_reports(builtin):
    for d, n, method in SHAPES:
        sys_, root = random_system_with_root(d, n, [24, d], builtin)
        as_complex = PolynomialSystem(tuple(
            MultiPoly(p.basis, p.dim, p.coeffs.astype(complex))
            for p in sys_.polys))
        assert all(p.coeffs.dtype == np.float64 for p in as_complex.polys)
        assert report_fields(solve_system(as_complex, method)) \
            == report_fields(solve_system(sys_, method))
        a = condition_at_root(sys_, root, method)
        b = condition_at_root(as_complex, root.real, method)
        assert [np.asarray(v).tobytes() for v in vars(a).values()] \
            == [np.asarray(v).tobytes() for v in vars(b).values()]


def test_public_records_stay_complex(cheb):
    sys_, root = random_system_with_root(2, 4, 25, cheb)
    rep = solve_system(sys_)
    assert rep.roots
    for r in rep.roots:
        assert r.x.dtype == np.complex128
        assert type(r.hidden_value) is complex
    rec = condition_at_root(sys_, root.real)
    assert rec.root.dtype == np.complex128
    assert type(rec.rayleigh) is complex
    assert type(rec.jacobian_det) is complex
    x, _, _ = newton_polish(sys_, root.real)
    assert x.dtype == np.complex128


def test_generator_builds_real_tensors(builtin):
    sys_, root = random_system_with_root(3, 2, 26, builtin)
    assert all(p.coeffs.dtype == np.float64 for p in sys_.polys)
    assert root.dtype == np.complex128


def test_demote_applies_one_rule():
    assert _demote([1, 2]).dtype == np.float64
    got = _demote(np.array([1.5, -2.0], dtype=complex))
    assert got.dtype == np.float64 and got.tolist() == [1.5, -2.0]
    assert _demote([1.0, 2j]).dtype == np.complex128
    # a NaN imaginary part is an imaginary part
    assert _demote([complex(1.0, np.nan)]).dtype == np.complex128
    stack = MatrixPolynomial(DegreeGradedBasis.chebyshev(),
                             np.ones((2, 2, 2), dtype=complex))
    assert stack.coeffs.dtype == np.float64


def test_basis_values_take_the_result_type_of_points_and_recurrence():
    cheb = DegreeGradedBasis.chebyshev()
    custom = custom_basis([1.0, 2.0, 2.0], [0.0, 0.0, 0.0],
                          [[-1.0], [-1.0 + 0.5j, 0.0]])
    x = np.array([0.3, -0.7])
    for evaluate in (basis_eval_all,
                     lambda b, k, x: basis_eval_deriv_all(b, k, x)[1]):
        assert evaluate(cheb, 3, x).dtype == np.float64
        assert evaluate(cheb, 3, 0).dtype == np.float64
        assert evaluate(cheb, 3, x + 0j).dtype == np.complex128
        assert evaluate(custom, 3, x).dtype == np.complex128
    assert custom.table(2).dtype == np.complex128
    assert cheb.table(2).dtype == np.float64

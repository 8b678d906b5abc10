"""Bivariate Sylvester construction against convolution and common-root
oracles."""

import numpy as np
import pytest

from resultant_lab.basis import (DegreeGradedBasis, Domain, basis_eval_all,
                                 basis_eval_deriv_all)
from resultant_lab.matpoly import StructureError, matpoly_eval, polyeig
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem,
                                     eval_with_jacobian, hide_variable)
from resultant_lab.rootfinder import (condition_at_root,
                                      random_system_with_root)
from resultant_lab.sylvester import (SylvesterResultant, sylvester_degrees,
                                     sylvester_resultant,
                                     sylvester_resultant_to_json,
                                     sylvester_root_eigvectors)
from conftest import circle_line


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------

def kept_polys(hv, z):
    """Coefficient vectors of q_1(., z) and q_2(., z) in the kept variable."""
    tensors = (np.moveaxis(p.coeffs, hv.hidden_index, -1)
               for p in hv.source.polys)
    return [t @ basis_eval_all(hv.basis, t.shape[-1] - 1, complex(z))
            for t in tensors]


def test_row_monomial_is_shifted_copy():
    # x^j * q just shifts the coefficient vector
    sys_, _ = random_system_with_root(2, 3, 1)
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    n, tau1, tau2 = res.size, res.tau1, res.tau2
    z = 0.3
    S = matpoly_eval(res.matrix_poly, z)
    q1, q2 = kept_polys(hv, z)
    blocks = ((0, tau2, q1[:tau1 + 1]), (tau2, tau1, q2[:tau2 + 1]))
    for first, count, q in blocks:
        for j in range(count):
            want = np.zeros(n, dtype=complex)
            want[j:j + len(q)] = q
            assert np.allclose(S[first + j], want, atol=1e-11)


def test_row_reproduces_product_values():
    # complex nodes on both axes: a disc domain
    leg = DegreeGradedBasis.legendre(Domain.disc(0.1j, 0.8))
    sys_, _ = random_system_with_root(2, 3, 2, basis_name=leg)
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    n, tau1, tau2 = res.size, res.tau1, res.tau2
    z = 0.2 - 0.3j
    S = matpoly_eval(res.matrix_poly, z)
    q1, q2 = kept_polys(hv, z)
    rng = np.random.default_rng(2)
    for y in 0.1j + 0.7 * np.exp(2j * np.pi * rng.uniform(size=4)):
        phis = basis_eval_all(leg, n - 1, y)
        got = S @ phis
        want = np.concatenate([phis[:tau2] * (q1 @ phis[:len(q1)]),
                               phis[:tau1] * (q2 @ phis[:len(q2)])])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


# ----------------------------------------------------------------------
# Degrees
# ----------------------------------------------------------------------

def test_degrees_exact_detection(mono):
    sys_ = circle_line(mono)
    assert sylvester_degrees(hide_variable(sys_)) == (2, 1)
    # trailing zero rows do not inflate the degree
    c = np.zeros((4, 2), dtype=complex)
    c[1, 0] = 1.0
    p = MultiPoly(mono, 2, c)
    q = MultiPoly(mono, 2, np.ones((2, 2)))
    assert sylvester_degrees(hide_variable(PolynomialSystem((p, q)))) == (1, 1)


def test_degrees_errors(mono, cheb):
    z = MultiPoly(mono, 2, np.zeros((2, 2)))
    p = MultiPoly(mono, 2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        sylvester_degrees(hide_variable(PolynomialSystem((z, p))))
    # both constant in the kept variable
    c = np.zeros((1, 3), dtype=complex)
    c[0, 2] = 1.0
    konst = MultiPoly(mono, 2, c)
    with pytest.raises(ValueError):
        sylvester_degrees(hide_variable(PolynomialSystem((konst, konst))))
    # trivariate input
    sys3, _ = random_system_with_root(3, 2, 3)
    with pytest.raises(ValueError):
        sylvester_degrees(hide_variable(sys3))


# ----------------------------------------------------------------------
# Resultant
# ----------------------------------------------------------------------

def test_matrix_rows_expand_shifted_polynomials(cheb):
    sys_, _ = random_system_with_root(2, 3, 4, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    assert isinstance(res, SylvesterResultant)
    n = res.size
    z = 0.37
    S = matpoly_eval(res.matrix_poly, z)
    phis = lambda x: basis_eval_all(cheb, n - 1, complex(x))  # noqa: E731
    t1, t2 = (np.moveaxis(p.coeffs, hv.hidden_index, -1)
              for p in hv.source.polys)
    q1 = t1 @ basis_eval_all(cheb, t1.shape[-1] - 1, z)
    q2 = t2 @ basis_eval_all(cheb, t2.shape[-1] - 1, z)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1, 1, 5):
        col = phis(x)
        vals = S @ col
        for j in range(res.tau2):
            want = col[j] * (q1[:res.tau1 + 1] @ col[:res.tau1 + 1])
            assert abs(vals[j] - want) <= 1e-9 * (1 + abs(want))
        for j in range(res.tau1):
            want = col[j] * (q2[:res.tau2 + 1] @ col[:res.tau2 + 1])
            assert abs(vals[res.tau2 + j] - want) <= 1e-9 * (1 + abs(want))


def test_determinant_vanishes_exactly_at_common_roots(mono):
    # q1 = x1^2 - z, q2 = x1 - z: common root iff z^2 = z, i.e. z in {0, 1}
    c1 = np.zeros((3, 2), dtype=complex)
    c1[2, 0], c1[0, 1] = 1.0, -1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1] = 1.0, -1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    res = sylvester_resultant(hide_variable(sys_))
    dets = {z: np.linalg.det(matpoly_eval(res.matrix_poly, z))
            for z in (0.0, 1.0, 0.5, -0.3)}
    assert abs(dets[0.0]) <= 1e-12
    assert abs(dets[1.0]) <= 1e-12
    assert abs(dets[0.5]) > 1e-3
    assert abs(dets[-0.3]) > 1e-3


def test_eigenvalues_contain_hidden_components(mono):
    sys_ = circle_line(mono)
    res = sylvester_resultant(hide_variable(sys_))
    lams = polyeig(res.matrix_poly)[0]
    for want in (0.5, -0.5):
        assert min(abs(l - want) for l in lams) <= 1e-8


def test_agrees_with_cayley_eigenvalues(cheb):
    from resultant_lab.cayley import cayley_resultant
    sys_, _ = random_system_with_root(2, 3, 6, basis_name="chebyshev")
    hv = hide_variable(sys_)
    lam_s = polyeig(sylvester_resultant(hv).matrix_poly)[0]
    lam_c = polyeig(cayley_resultant(hv).matrix_poly)[0]
    # every Sylvester eigenvalue inside the domain shows up in the
    # Cayley spectrum
    for l in lam_s:
        if abs(l.imag) < 0.9 and abs(l.real) < 0.9:
            assert min(abs(l - m) for m in lam_c) <= 1e-6 * (1 + abs(l))


# ----------------------------------------------------------------------
# Structured null vectors
# ----------------------------------------------------------------------

@pytest.mark.parametrize("basis_name", ["monomial", "chebyshev", "legendre"])
def test_root_vectors(basis_name):
    sys_, root = random_system_with_root(2, 3, 7, basis_name=basis_name)
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    v, w = sylvester_root_eigvectors(hv, root, res)
    basis = sys_.basis
    assert np.allclose(v, basis_eval_all(basis, res.size - 1, root[0]),
                       atol=1e-12)
    S0 = matpoly_eval(res.matrix_poly, root[1])
    scale = np.linalg.norm(S0, 2)
    assert np.linalg.norm(S0 @ v) <= 1e-7 * scale * np.linalg.norm(v)
    assert np.linalg.norm(S0.T @ w) <= 1e-7 * scale * np.linalg.norm(w)


def test_root_vectors_known_values(mono):
    # q1 = x1^2 - z, q2 = x1 - z at the root (1, 1):
    # v = (1, 1, 1); left blocks from the backward shifts of q2 and q1
    c1 = np.zeros((3, 2), dtype=complex)
    c1[2, 0], c1[0, 1] = 1.0, -1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1] = 1.0, -1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    assert (res.tau1, res.tau2) == (2, 1)
    v, w = sylvester_root_eigvectors(hv, [1.0, 1.0], res)
    assert np.allclose(v, [1.0, 1.0, 1.0])
    # w = (-b_1[q2], b_1[q1], b_2[q1]) at x=1: q2 shifts: b_1 = 1;
    # q1 = x^2 - 1: b_2 = 1, b_1 = x*b_2 = 1
    assert np.allclose(w, [-1.0, 1.0, 1.0])


def test_root_vectors_reject_non_root(cheb):
    sys_, _ = random_system_with_root(2, 2, 8, basis_name="chebyshev")
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    with pytest.raises(StructureError):
        sylvester_root_eigvectors(hv, [0.21, -0.43], res)
    v, w = sylvester_root_eigvectors(hv, [0.21, -0.43], res, check=False)
    assert v.shape == w.shape


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
@pytest.mark.parametrize("index", [0, 1])
def test_root_vectors_reject_non_finite_root(bad, index):
    sys_, root = random_system_with_root(2, 3, 19, basis_name="legendre")
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    root = np.asarray(root, dtype=complex)
    root[index] = bad
    msg = rf"non-finite root components at index \({index},\)$"
    with pytest.raises(ValueError, match=msg):
        sylvester_root_eigvectors(hv, root, res)
    with pytest.raises(ValueError, match=msg):
        condition_at_root(sys_, root, "sylvester")


def test_root_vectors_reject_wrong_root_length(mono):
    hv = hide_variable(circle_line(mono))
    res = sylvester_resultant(hv)
    with pytest.raises(ValueError, match="root must have length 2"):
        sylvester_root_eigvectors(hv, [0.5, 0.5, 0.5], res)


def test_rayleigh_product_is_jacobian_det(mono):
    sys_, root = random_system_with_root(2, 3, 9)
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    v, w = sylvester_root_eigvectors(hv, root, res)
    S = res.matrix_poly
    ders = basis_eval_deriv_all(S.basis, S.degree, root[1])[1]
    dS = np.tensordot(ders, S.coeffs, axes=([0], [0]))
    want = np.linalg.det(eval_with_jacobian(sys_, root)[1])
    assert abs(w @ dS @ v - want) <= 1e-9 * (1 + abs(want))


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_json_fields(mono):
    res = sylvester_resultant(hide_variable(circle_line(mono)))
    obj = sylvester_resultant_to_json(res)
    assert obj["taus"] == [2, 1]
    assert obj["row_blocks"] == [1, 2]
    assert obj["size"] == 3

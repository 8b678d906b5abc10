"""Fixtures and reference helpers shared by the test modules.

The plain functions are imported by name (from conftest import ...).
"""

import itertools
import warnings

import numpy as np
import pytest

from resultant_lab import cayley, matpoly, sylvester
from resultant_lab.basis import (DegreeGradedBasis, NormalizationWarning,
                                 basis_eval_all)
from resultant_lab.multipoly import MultiPoly, PolynomialSystem


@pytest.fixture
def mono():
    return DegreeGradedBasis.monomial()


@pytest.fixture
def cheb():
    return DegreeGradedBasis.chebyshev()


@pytest.fixture(params=["monomial", "chebyshev", "legendre"])
def builtin(request):
    return DegreeGradedBasis(request.param)


@pytest.fixture
def two_norm_calls(monkeypatch):
    """Record the shape of every matrix np.linalg.norm is asked the
    2-norm of, which numpy computes from an SVD, for the length of one
    test."""
    real_norm = np.linalg.norm
    calls = []

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls


def custom_basis(alpha, beta, gamma, domain=None):
    """DegreeGradedBasis.custom with its NormalizationWarning silenced,
    for tables that are not normalized on their domain on purpose."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormalizationWarning)
        return DegreeGradedBasis.custom(alpha, beta, gamma, domain=domain)


def dense_gamma_basis(domain=None):
    """Degree-8 custom basis with nonzero beta and every gamma_{k,j}
    nonzero: phi_{k+1} reaches back to all of phi_0, ..., phi_{k-1}."""
    rng = np.random.default_rng(5)
    m = 8
    return custom_basis(
        1.0 + 0.1 * rng.standard_normal(m), 0.1 * rng.standard_normal(m),
        [0.1 * rng.standard_normal(k) for k in range(1, m)], domain=domain)


def two_loop_eval_deriv(basis, kmax, x):
    """Reference (vals, ders) of basis_eval_deriv_all: the value and the
    derivative recurrences as two accumulators stepped side by side, in
    the operation order of the fused recurrence's every entry."""
    tab = basis.table(kmax - 1)
    al, be = tab.alpha[:kmax].tolist(), tab.beta[:kmax].tolist()
    x = np.asarray(x)
    vals = np.empty((kmax + 1,) + x.shape,
                    dtype=np.result_type(x, tab.dtype))
    ders = np.empty_like(vals)
    vals[0] = 1.0
    ders[0] = 0.0
    for k in range(kmax):
        lin = al[k] * x + be[k]
        acc = lin * vals[k]
        dacc = al[k] * vals[k] + lin * ders[k]
        for j, g in tab.rows[k]:
            acc += g * vals[j - 1]
            dacc += g * ders[j - 1]
        vals[k + 1] = acc
        ders[k + 1] = dacc
    return vals, ders


def naive_eval(p, x):
    """Reference evaluation: explicit sum over all tensor entries."""
    tables = [basis_eval_all(p.basis, p.coeffs.shape[a] - 1, complex(x[a]))
              for a in range(p.dim)]
    total = 0.0j
    for idx in itertools.product(*[range(e) for e in p.coeffs.shape]):
        term = p.coeffs[idx]
        for a, i in enumerate(idx):
            term = term * tables[a][i]
        total += term
    return total


def circle_line(basis):
    """x^2 + y^2 - 1/2 = 0 and x - y = 0 in the given basis's coefficient
    slots; in the monomial basis the roots are +-(1/2, 1/2)."""
    c1 = np.zeros((3, 3), dtype=complex)
    c1[0, 0], c1[2, 0], c1[0, 2] = -0.5, 1.0, 1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1] = 1.0, -1.0
    return PolynomialSystem((MultiPoly(basis, 2, c1),
                             MultiPoly(basis, 2, c2)))


def report_fields(rep):
    """Every field of a report, floats and arrays as bytes."""
    def b(v):
        return np.asarray(v).tobytes()
    return ((rep.method, rep.hidden_index, rep.resultant_size,
             rep.n_eigenvalues, rep.n_infinite, rep.n_outside_domain,
             rep.n_recovery_failed),
            [(b(r.x), b(r.hidden_value), b(r.residuals), b(r.max_residual),
              b(r.pre_polish_residual), r.spurious, b(r.eig_condition),
              b(r.root_condition), r.newton_iters, r.recovery)
             for r in rep.roots])


# The three plan caches by owning module.
PLAN_CACHES = {"cayley": cayley._plan, "sylvester": sylvester._plan,
               "matpoly": matpoly._plan}


def plan_args(name, basis):
    """Arguments of one lookup of the plan cache name for a small fixed
    shape in basis: a bivariate Cayley grid of degree 2, a Sylvester
    matrix of size 4, a degree-4 pencil of size 3 with real
    coefficients.  Degree 4 is the highest any of them needs."""
    if name == "cayley":
        return basis, (3, 3), (1,)
    if name == "sylvester":
        return basis, 4, ((3, 3), (2, 3))
    return basis, 4, 3, np.dtype(float)

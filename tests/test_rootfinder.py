"""Pipeline tests: recovery, polishing, solving, families, reports."""

import csv
import io
import json

import numpy as np
import pytest
import scipy.linalg

from resultant_lab import multipoly, rootfinder
from resultant_lab.basis import DegreeGradedBasis, basis_eval_all
from resultant_lab.cayley import cayley_resultant
from resultant_lab.matpoly import (EigenSolveError, MatrixPolynomial,
                                   _effective_degree, eigvecs_and_conditions,
                                   linearize)
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem,
                                     hide_variable, jacobian, mp_eval,
                                     mp_interpolate)
from resultant_lab.rootfinder import (RecoveryError, RootRecord, RootReport,
                                      SolveOptions, condition_at_root,
                                      condition_sweep,
                                      family_coupled_quadratic, family_linear,
                                      family_orthogonal_quadratic,
                                      family_rotated_quadratic, newton_polish,
                                      random_system_with_root,
                                      recover_components, report_to_csv,
                                      report_to_json, solve_system)
from resultant_lab.sylvester import sylvester_resultant


def circle_line(basis):
    c1 = np.zeros((3, 3), dtype=complex)
    c1[0, 0], c1[2, 0], c1[0, 2] = -0.5, 1.0, 1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1] = 1.0, -1.0
    return PolynomialSystem((MultiPoly(basis, 2, c1),
                             MultiPoly(basis, 2, c2)))


def assert_root_sets_match(report, expected, tol=1e-8):
    got = [r.x for r in report.accepted]
    assert len(got) == len(expected)
    left = list(got)
    for e in expected:
        gaps = [np.max(np.abs(np.asarray(e) - g)) for g in left]
        i = int(np.argmin(gaps))
        assert gaps[i] <= tol
        left.pop(i)


@pytest.fixture
def mono():
    return DegreeGradedBasis.monomial()


# ----------------------------------------------------------------------
# Newton polishing
# ----------------------------------------------------------------------

def test_newton_converges_quadratically(mono):
    sys_ = circle_line(mono)
    x, iters, ok = newton_polish(sys_, [0.43, 0.55])
    assert ok and iters <= 7
    assert np.allclose(x, [0.5, 0.5], atol=1e-13)


def test_newton_stops_on_singular_jacobian(mono):
    # p1 = x^2 + y^2, p2 = x*y: Jacobian vanishes at the origin
    c1 = np.zeros((3, 3), dtype=complex)
    c1[2, 0], c1[0, 2] = 1.0, 1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 1] = 1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    x, iters, ok = newton_polish(sys_, [0.0, 0.0])
    assert not ok and iters == 0
    assert np.allclose(x, [0.0, 0.0])


def batched_newton(sys_, x0, max_iter=20, tol=1e-14):
    x0 = np.asarray(x0, dtype=complex)
    F, J = multipoly.eval_with_jacobian(sys_, x0)
    return rootfinder._newton(sys_, x0, F, J, max_iter, tol)


def test_batched_newton_stops_only_the_singular_row(mono):
    # circle_line's Jacobian [[2x, 2y], [1, -1]] is singular on x = -y:
    # the origin start stops at once, the others still converge
    sys_ = circle_line(mono)
    starts = [[0.43, 0.55], [0.0, 0.0], [-0.4, -0.6], [0.3, -0.3]]
    x, iters, ok = batched_newton(sys_, starts)
    assert ok.tolist() == [True, False, True, False]
    assert iters[1] == iters[3] == 0
    assert np.array_equal(x[[1, 3]], np.array(starts)[[1, 3]])
    for k, x0 in enumerate(starts):
        want = newton_polish(sys_, x0)
        assert np.array_equal(x[k], want[0])
        assert (iters[k], ok[k]) == want[1:]


def test_batched_newton_matches_scalar():
    # 20 start sets, 6 starts each, scattered around a planted root: the
    # far ones converge elsewhere, slowly or not at all
    for seed in range(20):
        d = 2 + seed % 2
        sys_, root = random_system_with_root(d, 3, seed,
                                             basis_name="chebyshev")
        rng = np.random.default_rng(seed)
        starts = root + rng.uniform(-0.3, 0.3, (6, d)) * np.logspace(
            -3, 0, 6)[:, None]
        x, iters, ok = batched_newton(sys_, starts)
        for k, x0 in enumerate(starts):
            want_x, want_iters, want_ok = newton_polish(sys_, x0)
            assert ok[k] == want_ok
            assert abs(iters[k] - want_iters) <= 1
            if want_ok:
                assert np.max(np.abs(x[k] - want_x)) <= 1e-12 * (
                    1 + np.max(np.abs(want_x)))


# ----------------------------------------------------------------------
# Component recovery
# ----------------------------------------------------------------------

@pytest.mark.parametrize("basis_name", ["monomial", "chebyshev", "legendre"])
def test_recover_from_synthetic_cayley_vector(basis_name):
    sys_, root = random_system_with_root(3, 2, 20, basis_name=basis_name)
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    basis = sys_.basis
    cols = [basis_eval_all(basis, e - 1, root[k])
            for k, e in enumerate(res.col_extents)]
    vec = np.multiply.outer(cols[0], cols[1]).ravel()
    comps, how = recover_components(res, vec, basis, "cayley")
    assert how == "ratio"
    assert np.allclose(comps, root[:2], atol=1e-10)


def test_recover_rank1_fallback(mono):
    sys_, root = random_system_with_root(3, 2, 21)
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    assert res.col_extents == (4, 2)
    # zero the degree-0 slot of the first axis: the slot ratio loses its
    # denominator and recovery must fall back to the rank-one fit, which
    # reads the component off the recurrence instead
    x1, x2 = root[0], root[1]
    u0 = np.array([0.0, 1.0, x1, x1 ** 2], dtype=complex)
    u1 = np.array([1.0, x2], dtype=complex)
    vec = np.multiply.outer(u0, u1).ravel()
    comps, how = recover_components(res, vec, mono, "cayley")
    assert how == "rank1"
    assert np.allclose(comps, root[:2], atol=1e-9)


def test_recover_raises_on_extent_one(mono):
    sys_, _ = family_linear(3, seed=4)
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    assert res.matrix_poly.size == 1
    with pytest.raises(RecoveryError):
        recover_components(res, np.ones(1), mono, "cayley")


def test_recover_sylvester_vector(mono):
    sys_, root = random_system_with_root(2, 3, 22)
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    vec = basis_eval_all(mono, res.size - 1, root[0])
    comps, how = recover_components(res, vec, mono, "sylvester")
    assert how == "ratio"
    assert abs(comps[0] - root[0]) <= 1e-10


# ----------------------------------------------------------------------
# Solving
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_solve_circle_line(mono, method):
    report = solve_system(circle_line(mono), method=method)
    assert isinstance(report, RootReport)
    assert_root_sets_match(report, [(0.5, 0.5), (-0.5, -0.5)], tol=1e-10)
    for r in report.accepted:
        assert r.max_residual <= 1e-12
        assert r.recovery == "ratio"
        assert np.isfinite(r.eig_condition)
        assert np.isfinite(r.root_condition)


@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_solve_hyperbola_pair(mono, method):
    # x*y = 0.24, x + y = 1: roots (0.4, 0.6) and (0.6, 0.4)
    c1 = np.zeros((2, 2), dtype=complex)
    c1[1, 1], c1[0, 0] = 1.0, -0.24
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1], c2[0, 0] = 1.0, 1.0, -1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    report = solve_system(sys_, method=method)
    assert_root_sets_match(report, [(0.4, 0.6), (0.6, 0.4)], tol=1e-9)


def test_solve_cubic(mono):
    # y = x^3 - 0.3 x meets y = 0.5 x where x^3 = 0.8 x:
    # x in {0, +-sqrt(0.8)}, all three inside the box
    c1 = np.zeros((4, 2), dtype=complex)
    c1[3, 0], c1[1, 0], c1[0, 1] = 1.0, -0.3, -1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1] = 0.5, -1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    r = np.sqrt(0.8)
    expected = [(0.0, 0.0), (r, 0.5 * r), (-r, -0.5 * r)]
    report = solve_system(sys_, method="cayley")
    assert_root_sets_match(report, expected, tol=1e-8)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_solve_linear_uses_grid_fallback(d):
    sys_, root = family_linear(d, seed=60 + d)
    report = solve_system(sys_)
    assert report.resultant_size == 1
    assert len(report.accepted) == 1
    rec = report.accepted[0]
    assert rec.recovery == "grid"
    assert np.allclose(rec.x, root, atol=1e-9)
    # duplicate grid starts collapsed into one record
    assert len(report.roots) == 1


def test_solve_chebyshev_system():
    cheb = DegreeGradedBasis.chebyshev()
    nodes2 = [cheb.domain.nodes(3), cheb.domain.nodes(3)]
    vals1 = np.array([[x ** 2 + y ** 2 - 0.5 for y in nodes2[1]]
                      for x in nodes2[0]])
    p1 = mp_interpolate(cheb, 2, (2, 2), vals1)
    vals2 = np.array([[x - y for y in nodes2[1]] for x in nodes2[0]])
    p2 = mp_interpolate(cheb, 2, (2, 2), vals2)
    sys_ = PolynomialSystem((p1, p2))
    for method in ("cayley", "sylvester"):
        report = solve_system(sys_, method=method)
        assert_root_sets_match(report, [(0.5, 0.5), (-0.5, -0.5)], tol=1e-9)


def test_solve_counts_consistent(mono):
    sys_ = circle_line(mono)
    report = solve_system(sys_)
    P_size = report.resultant_size
    # finite + infinite equals size * degree of the resultant pencil
    res = cayley_resultant(hide_variable(sys_))
    total = P_size * res.matrix_poly.degree
    assert report.n_eigenvalues + report.n_infinite == total
    assert report.n_outside_domain <= report.n_eigenvalues


def test_solve_takes_vectors_only_in_domain(monkeypatch):
    points = []

    def counting(P, lams):
        points.extend(lams)
        return eigvecs_and_conditions(P, lams)

    monkeypatch.setattr(rootfinder, "eigvecs_and_conditions", counting)
    sys_, _ = random_system_with_root(2, 3, 6, basis_name="chebyshev")
    report = solve_system(sys_)
    assert report.n_outside_domain > 0
    assert len(points) == report.n_eigenvalues - report.n_outside_domain
    assert all(sys_.domain.contains(lam, 1e-6) for lam in points)


def test_solve_spurious_flagging(mono):
    report = solve_system(circle_line(mono),
                          options=SolveOptions(polish=False,
                                               tol_accept=1e-30))
    assert len(report.roots) >= 1
    assert all(r.spurious for r in report.roots)
    assert report.accepted == ()


def test_solve_wide_taus_on_linear_system_is_singular():
    # inflating the degree bounds on a linear system pads the resultant
    # with zeros, producing a non-regular pencil; the structural bounds
    # are load bearing
    sys_, _ = family_linear(3, seed=77)
    with pytest.raises(EigenSolveError):
        solve_system(sys_, options=SolveOptions(taus=(1, 1)))


def test_solve_rejects_unknown_method(mono):
    with pytest.raises(ValueError):
        solve_system(circle_line(mono), method="groebner")


def test_hidden_index_override(mono):
    # hide the first variable instead of the last
    report = solve_system(circle_line(mono),
                          options=SolveOptions(hidden_index=0))
    assert report.hidden_index == 0
    assert_root_sets_match(report, [(0.5, 0.5), (-0.5, -0.5)], tol=1e-10)


def _forbid_loose_evaluation(monkeypatch):
    """Make every point evaluation outside eval_with_jacobian raise, and
    record the points of each kernel call made through rootfinder, one
    (points, d) array per call."""
    def forbidden(*args, **kwargs):
        raise AssertionError("point evaluation outside eval_with_jacobian")

    for mod in (rootfinder, multipoly):
        for name in ("mp_eval", "jacobian", "root_condition"):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    calls = []

    def counting_kernel(sys_, x):
        calls.append(np.array(x).reshape(-1, sys_.dim))
        return multipoly.eval_with_jacobian(sys_, x)

    monkeypatch.setattr(rootfinder, "eval_with_jacobian", counting_kernel)
    return calls


def test_solve_evaluates_only_through_the_kernel(monkeypatch):
    sys_, root = random_system_with_root(2, 3, 6, basis_name="chebyshev")
    linear, _ = family_linear(2, seed=5)  # grid fallback path
    calls = _forbid_loose_evaluation(monkeypatch)
    for s, opts in ((sys_, None), (sys_, SolveOptions(polish=False)),
                    (linear, None)):
        calls.clear()
        report = solve_system(s, options=opts)
        assert report.accepted and calls
        if s is sys_:  # start points, Newton rounds, polished points
            assert len(calls) <= max(r.newton_iters
                                     for r in report.roots) + 2
    calls.clear()
    x, iters, ok = newton_polish(sys_, root + 1e-3)
    assert ok and iters > 1
    assert [len(c) for c in calls] == [1] * iters


def test_polished_candidate_costs_iters_plus_one_kernel_calls(monkeypatch):
    # the evaluation at the start points serves both the pre-polish
    # residuals and Newton's first iteration; one more evaluation at the
    # polished points gives the residuals and kappa_root
    sys_, _ = random_system_with_root(2, 3, 6, basis_name="chebyshev")
    calls = _forbid_loose_evaluation(monkeypatch)
    iters = []
    newton = rootfinder._newton

    def recording(*args):
        out = newton(*args)
        iters.extend(out[1].tolist())
        return out

    monkeypatch.setattr(rootfinder, "_newton", recording)
    report = solve_system(sys_)
    assert report.accepted
    assert all(r.recovery != "grid" for r in report.roots)
    assert iters and min(iters) >= 1
    # every start point is evaluated once, in the first call
    assert len(calls[0]) == len(iters)
    assert sum(len(c) for c in calls) == sum(n + 1 for n in iters)
    assert len(calls) == max(iters) + 1


def test_condition_at_root_makes_one_kernel_call(monkeypatch):
    sys_ = family_orthogonal_quadratic(3, 0.5, seed=2)
    calls = _forbid_loose_evaluation(monkeypatch)
    rec = condition_at_root(sys_, np.zeros(3))
    assert len(calls) == 1 and np.all(calls[0] == 0)
    assert rec.root_condition == pytest.approx(2.0, rel=1e-10)
    assert rec.jacobian_det == pytest.approx(np.linalg.det(
        multipoly.eval_with_jacobian(sys_, np.zeros(3))[1]))


def qz_polyeig(P):
    """polyeig as it was before shift and invert: one eigenvalues-only QZ
    run on the linearized pencil, |beta| / |(alpha, beta)| <= 1e3 eps
    counted infinite."""
    K, N = P.degree, P.size
    k_eff = _effective_degree(P)
    X, Y = linearize(MatrixPolynomial(P.basis, P.coeffs[:k_eff + 1]))
    alphas, betas = scipy.linalg.eigvals(X, Y, homogeneous_eigvals=True)
    finite = (np.abs(betas) / np.hypot(np.abs(alphas), np.abs(betas))
              > 1e3 * np.finfo(float).eps)
    lams = alphas[finite] / betas[finite]
    lams = lams[np.lexsort((lams.imag, lams.real))]
    return lams, N * (K - k_eff) + int(np.count_nonzero(~finite))


HARD_INPUTS = ([("rotated", s) for s in 10.0 ** -np.arange(1, 7)]
               + [("coupled", u) for u in 10.0 ** -np.arange(1, 8)])


@pytest.mark.parametrize("basis_name", ["monomial", "chebyshev"])
@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_hard_inputs_keep_every_root_qz_accepts(monkeypatch, method,
                                                basis_name):
    # rotated: simple roots, the one at the origin with kappa_root =
    # 1/sigma.  coupled: the origin is a double root (its Jacobian is
    # u c [[1, 1], [1, 1]]), where a root passing the residual test can
    # sit up to about sqrt(tol_accept) away from it.
    for family, s in HARD_INPUTS:
        if family == "rotated":
            sys_ = family_rotated_quadratic(s, basis_name=basis_name)
            tol = 1e-8
        else:
            sys_ = family_coupled_quadratic(s, basis_name=basis_name)
            tol = np.sqrt(SolveOptions().tol_accept)
        hv = hide_variable(sys_, 1)
        P = rootfinder._build_resultant(hv, method, None).matrix_poly
        with monkeypatch.context() as m:
            m.setattr(rootfinder, "polyeig", qz_polyeig)
            ref = solve_system(sys_, method)
        got = solve_system(sys_, method)
        for rep in (ref, got):
            assert rep.n_eigenvalues + rep.n_infinite == P.size * P.degree
        for r in ref.accepted:
            gaps = [np.max(np.abs(r.x - g.x)) for g in got.accepted]
            assert gaps and min(gaps) <= tol * (1 + np.max(np.abs(r.x))), (
                family, s, r.x)


# ----------------------------------------------------------------------
# Dedupe
# ----------------------------------------------------------------------

def _record(x, max_residual):
    x = np.asarray(x, dtype=complex)
    return RootRecord(x=x, hidden_value=complex(x[-1]),
                      residuals=np.array([max_residual]),
                      max_residual=max_residual, pre_polish_residual=1.0,
                      spurious=False, eig_condition=1.0, root_condition=1.0,
                      newton_iters=1, recovery="ratio")


def brute_force_dedupe(records, tol):
    """The pairwise loop the vectorised _dedupe must reproduce."""
    kept = []
    for rec in sorted(records, key=lambda r: r.max_residual):
        if not any(np.max(np.abs(rec.x - other.x))
                   <= tol * (1.0 + np.max(np.abs(other.x)))
                   for other in kept):
            kept.append(rec)
    return kept


def test_dedupe_tolerance_edges():
    tol = 1e-8
    base = _record([0.5, -0.25], 1e-15)  # gap limit tol * 1.5
    inside = _record([0.5 + 1.4e-8, -0.25], 1e-14)
    outside = _record([0.5, -0.25 - 1.6e-8], 1e-14)
    kept = rootfinder._dedupe([inside, outside, base], tol)
    assert kept == [base, outside]
    assert rootfinder._dedupe([], tol) == []


def test_dedupe_lower_residual_survives():
    worse = _record([0.1, 0.2 + 0.3j], 1e-9)
    better = _record([0.1, 0.2 + 0.3j], 1e-13)
    assert rootfinder._dedupe([worse, better], 1e-8) == [better]


def test_dedupe_compares_with_kept_records_only():
    # b is within tol of a and dropped; c is within tol of b but not of a,
    # and survives because b was never kept
    a = _record([0.0, 0.0], 1e-15)
    b = _record([0.9e-8, 0.0], 1e-14)
    c = _record([1.8e-8, 0.0], 1e-13)
    assert rootfinder._dedupe([c, b, a], 1e-8) == [a, c]


def test_dedupe_matches_brute_force():
    rng = np.random.default_rng(8)
    tol = 1e-8
    for trial in range(20):
        centres = rng.uniform(-1, 1, (5, 3)) + 1j * rng.uniform(-1, 1, (5, 3))
        records = []
        for k in range(int(rng.integers(1, 30))):
            jitter = tol * rng.uniform(-2, 2, 3)
            records.append(_record(centres[rng.integers(5)] + jitter,
                                   float(rng.uniform(0, 1e-10))))
        got = rootfinder._dedupe(records, tol)
        want = brute_force_dedupe(records, tol)
        assert [id(r) for r in got] == [id(r) for r in want]


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------

def test_family_orthogonal_quadratic_shape():
    for d in (2, 3):
        sys_ = family_orthogonal_quadratic(d, 0.3, seed=5)
        assert sys_.dim == d
        origin = np.zeros(d)
        for p in sys_.polys:
            assert abs(mp_eval(p, origin)) <= 1e-14
        J = jacobian(sys_, origin)
        # sigma * orthogonal: J^T J = sigma^2 I
        assert np.allclose(J.T @ J, 0.09 * np.eye(d), atol=1e-12)


def test_family_orthogonal_quadratic_chebyshev():
    sys_ = family_orthogonal_quadratic(2, 0.4, basis_name="chebyshev")
    for p in sys_.polys:
        assert abs(mp_eval(p, [0.0, 0.0])) <= 1e-13
    J = jacobian(sys_, [0.0, 0.0])
    assert np.allclose(J, 0.4 * np.eye(2), atol=1e-12)


def test_family_rotated_quadratic():
    c = s = np.sqrt(0.5)
    sys_ = family_rotated_quadratic(0.2)
    J = jacobian(sys_, [0.0, 0.0])
    assert np.allclose(J, 0.2 * np.array([[c, s], [-s, c]]), atol=1e-13)


def test_family_linear_root():
    sys_, root = family_linear(3, seed=8)
    for p in sys_.polys:
        assert abs(mp_eval(p, root)) <= 1e-12
    assert np.all(np.abs(root) <= 0.9)


def test_family_coupled_quadratic_root():
    sys_ = family_coupled_quadratic(1e-3)
    for p in sys_.polys:
        assert abs(mp_eval(p, [0.0, 0.0])) == 0.0


@pytest.mark.parametrize("u", [1e-1, 1e-4, 1e-7])
def test_family_coupled_quadratic_origin_is_a_double_root(u):
    # the Jacobian at the origin is u c [[1, 1], [1, 1]], singular
    rec = condition_at_root(family_coupled_quadratic(u), np.zeros(2))
    assert rec.root_condition == np.inf
    assert rec.jacobian_det == 0


def test_random_system_with_root():
    for basis_name in ("monomial", "legendre"):
        sys_, root = random_system_with_root(3, 2, 9, basis_name=basis_name)
        for p in sys_.polys:
            assert abs(mp_eval(p, root)) <= 1e-12


# ----------------------------------------------------------------------
# Conditioning
# ----------------------------------------------------------------------

def test_condition_closed_forms():
    rec = condition_at_root(family_orthogonal_quadratic(2, 0.5),
                            np.zeros(2))
    assert rec.eig_condition == pytest.approx(4.0, rel=1e-10)
    assert rec.rayleigh == pytest.approx(0.25, abs=1e-12)
    assert rec.jacobian_det == pytest.approx(0.25, abs=1e-12)
    assert rec.root_condition == pytest.approx(2.0, rel=1e-10)
    rec = condition_at_root(family_rotated_quadratic(0.5), np.zeros(2),
                            method="sylvester")
    assert rec.eig_condition == pytest.approx(np.sqrt(1.25) / 0.25,
                                              rel=1e-10)


def test_condition_sweep_shapes():
    rows = condition_sweep(2, [0.5, 0.2])
    assert [s for s, _ in rows] == [0.5, 0.2]
    rows = condition_sweep(2, [0.5], method="sylvester")
    assert rows[0][1].method == "sylvester"


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def test_report_json_fields(mono):
    report = solve_system(circle_line(mono))
    obj = json.loads(json.dumps(report_to_json(report)))
    assert obj["method"] == "cayley"
    assert len(obj["roots"]) == 2
    r = obj["roots"][0]
    for key in ("x_real", "x_imag", "residuals", "max_residual", "spurious",
                "eig_condition", "root_condition", "recovery",
                "pre_polish_residual", "newton_iters", "hidden_value"):
        assert key in r
    assert obj["resultant_size"] == 2


def test_report_csv_roundtrip(mono):
    report = solve_system(circle_line(mono))
    text = report_to_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    xs = sorted(float(row["re_x1"]) for row in rows)
    assert xs == [-0.5, 0.5]
    # shortest round-trip float formatting: parsing returns the value
    for row in rows:
        assert float(row["max_residual"]) == pytest.approx(0.0, abs=1e-12)
        assert row["recovery"] in ("ratio", "rank1", "grid")


def test_report_csv_empty(mono):
    # no roots inside a tiny domain still yields a well-formed header
    from resultant_lab.basis import Domain
    basis = DegreeGradedBasis.monomial(Domain.interval(0.8, 0.9))
    c1 = np.zeros((3, 3), dtype=complex)
    c1[0, 0], c1[2, 0], c1[0, 2] = -0.5, 1.0, 1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1] = 1.0, -1.0
    sys_ = PolynomialSystem((MultiPoly(basis, 2, c1),
                             MultiPoly(basis, 2, c2)))
    report = solve_system(sys_)
    assert report.roots == ()
    text = report_to_csv(report)
    assert text.splitlines()[0].startswith("max_residual") or \
        "max_residual" in text.splitlines()[0]

"""Pipeline tests: recovery, polishing, solving, families, reports."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from resultant_lab import matpoly, multipoly, rootfinder
from resultant_lab.basis import DegreeGradedBasis, Domain, basis_eval_all
from resultant_lab.cayley import cayley_resultant, default_taus
from resultant_lab.matpoly import (EigenSolveError, MatrixPolynomial,
                                   _effective_degree, eigvecs_and_conditions,
                                   polyeig)
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem,
                                     eval_with_jacobian, hide_variable,
                                     mp_eval, mp_interpolate)
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
from conftest import circle_line
from test_matpoly import (dense_inverted_pencil, linearize,
                          svd_eigvecs_and_conditions)


def assert_root_sets_match(report, expected, tol=1e-8):
    got = [r.x for r in report.accepted]
    assert len(got) == len(expected)
    left = list(got)
    for e in expected:
        gaps = [np.max(np.abs(np.asarray(e) - g)) for g in left]
        i = int(np.argmin(gaps))
        assert gaps[i] <= tol
        left.pop(i)


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


def test_newton_growing_early_steps_still_converge(mono):
    # p1 = x^3 - 2x - 5, p2 = y - 1/2; from x = -2 the second x step is
    # larger than the first, far above the rounding floor
    c1 = np.zeros((4, 1), dtype=complex)
    c1[0, 0], c1[1, 0], c1[3, 0] = -5.0, -2.0, 1.0
    c2 = np.zeros((1, 2), dtype=complex)
    c2[0, 0], c2[0, 1] = -0.5, 1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    x, steps = -2.0, []
    for _ in range(2):
        steps.append((x ** 3 - 2 * x - 5) / (3 * x ** 2 - 2))
        x -= steps[-1]
    assert abs(steps[1]) > abs(steps[0])
    x, iters, ok = newton_polish(sys_, [-2.0, 0.0])
    assert ok and iters < 20
    assert np.allclose(x, [2.0945514815423265, 0.5], atol=1e-13)


def test_newton_stops_at_its_rounding_floor():
    # Two roots 1.3e-4 apart with kappa_root ~ 544: Newton steps stall at
    # 1e-13..1e-12, above _NEWTON_TOL, so only the floor rule stops them
    sys_, _ = random_system_with_root(3, 3, [59, 32], "chebyshev")
    rep = solve_system(sys_)
    hard = [r for r in rep.roots if r.root_condition > 100]
    assert len(hard) == 2
    for r in hard:
        assert r.newton_iters <= 8
        x = r.x.copy()
        for _ in range(20):  # plain Newton, no stop rule
            F, J = multipoly.eval_with_jacobian(sys_, x)
            x = x - np.linalg.solve(J, F)
        assert np.max(np.abs(x - r.x)) <= 1e-12


def batched_newton(sys_, x0):
    x0 = np.asarray(x0, dtype=complex)
    F, J = multipoly.eval_with_jacobian(sys_, x0)
    return rootfinder._newton(sys_, x0, F, J)


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
    comps, how = recover_components(res, vec, basis)
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
    comps, how = recover_components(res, vec, mono)
    assert how == "rank1"
    assert np.allclose(comps, root[:2], atol=1e-9)


def shifted_coordinates(basis):
    """p_1 = x - 0.3, p_2 = y - 0.2: both resultants have size one."""
    c1 = np.zeros((2, 1), dtype=complex)
    c1[0, 0], c1[1, 0] = -0.3, 1.0
    c2 = np.zeros((1, 2), dtype=complex)
    c2[0, 0], c2[0, 1] = -0.2, 1.0
    return PolynomialSystem((MultiPoly(basis, 2, c1),
                             MultiPoly(basis, 2, c2)))


def test_recover_raises_on_extent_one(mono):
    sys_, _ = family_linear(3, seed=4)
    cayley = cayley_resultant(hide_variable(sys_))
    sylvester = sylvester_resultant(hide_variable(shifted_coordinates(mono)))
    for res in (cayley, sylvester):
        assert res.matrix_poly.size == 1
        with pytest.raises(RecoveryError):
            recover_components(res, np.ones(1), mono)
        # a stack marks every row failed instead of raising; no rows at
        # all is a stack too
        for m in (3, 0):
            comps, how = recover_components(res, np.ones((m, 1)), mono)
            assert how.tolist() == [""] * m
            assert comps.shape == (m, len(res.col_extents))
            assert np.all(np.isnan(comps))


def test_recover_sylvester_vector(mono):
    sys_, root = random_system_with_root(2, 3, 22)
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    vec = basis_eval_all(mono, res.size - 1, root[0])
    comps, how = recover_components(res, vec, mono)
    assert how == "ratio"
    assert abs(comps[0] - root[0]) <= 1e-10
    # a zero degree-0 slot sends the single axis to the rank-one fit
    vec[0] = 0.0
    comps, how = recover_components(res, vec, mono)
    assert how == "rank1"
    assert abs(comps[0] - root[0]) <= 1e-10
    # a zero vector, and one whose rank-one fit finds no usable slots
    last = np.zeros(res.size)
    last[-1] = 1.0
    for vec in (np.zeros(res.size), last):
        with pytest.raises(RecoveryError):
            recover_components(res, vec, mono)


def recovery_stack(res, basis, seed):
    """Right vectors of res in the order a solve meets them, plus
    structured vectors at random points with slot 0 of one axis zeroed
    (rank-one rows), a zero row and a vector whose only nonzero slot is
    the last one of every axis (its rank-one fit has no usable slots)."""
    P = res.matrix_poly
    lams = polyeig(P)[0]
    rows = [eigvecs_and_conditions(P, lams)[0]]
    ext = res.col_extents
    rng = np.random.default_rng(seed)
    for k0 in range(len(ext)):
        pts = rng.uniform(-0.9, 0.9, len(ext))
        V = basis_eval_all(basis, ext[0] - 1, pts[0]).astype(complex)
        for a in range(1, len(ext)):
            V = np.multiply.outer(V, basis_eval_all(basis, ext[a] - 1,
                                                    pts[a]))
        np.moveaxis(V, k0, 0)[0] = 0.0
        rows.append(V.reshape(1, -1))
    last = np.zeros(ext, dtype=complex)
    last[tuple(e - 1 for e in ext)] = 1.0
    rows += [np.zeros((1, P.size), dtype=complex), last.reshape(1, -1)]
    return np.concatenate(rows)


@pytest.mark.parametrize("basis_name", ["monomial", "chebyshev", "legendre"])
@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_stacked_recovery_matches_per_vector_calls(basis_name, method):
    labels = []
    for seed in range(3):
        d = 3 if method == "cayley" and seed == 2 else 2
        sys_ = random_system_with_root(d, 3, seed, basis_name)[0]
        res = rootfinder._build_resultant(hide_variable(sys_), method,
                                          None)[0]
        vecs = recovery_stack(res, sys_.basis, seed)
        comps, how = recover_components(res, vecs, sys_.basis)
        assert comps.shape == (len(vecs), len(res.col_extents))
        assert how.shape == (len(vecs),)
        for k, vec in enumerate(vecs):
            try:
                want, want_how = recover_components(res, vec, sys_.basis)
            except RecoveryError:
                assert how[k] == "" and np.all(np.isnan(comps[k]))
                continue
            assert how[k] == want_how
            assert comps[k].tobytes() == want.tobytes()
        labels += how.tolist()
    # the stacks hold every outcome: the zero row and the last-slot row
    # fail, the zeroed slots take the rank-one fit
    assert {"ratio", "rank1", ""} <= set(labels)


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


@pytest.mark.parametrize("field,value", [
    ("tol_accept", np.nan), ("tol_accept", -1.0), ("tol_accept", 0.0),
    ("tol_accept", np.inf), ("domain_margin", np.nan),
    ("domain_margin", -1.0), ("domain_margin", np.inf)])
def test_solve_options_reject_bad_tolerance_and_margin(field, value):
    with pytest.raises(ValueError, match=field):
        SolveOptions(**{field: value})


def test_solve_options_accept_zero_margin():
    assert SolveOptions(domain_margin=0.0).domain_margin == 0.0


def test_solve_rejects_unknown_method(mono):
    with pytest.raises(ValueError, match="groebner"):
        solve_system(circle_line(mono), method="groebner")
    with pytest.raises(ValueError, match="'qz'"):
        solve_system(circle_line(mono), "qz")
    with pytest.raises(ValueError, match="'qz'"):
        condition_at_root(circle_line(mono), [0.5, 0.5], "qz")


def test_sylvester_rejects_taus(mono):
    with pytest.raises(ValueError, match="taus"):
        solve_system(circle_line(mono), "sylvester",
                     SolveOptions(taus=(1,)))
    with pytest.raises(ValueError, match="taus"):
        condition_at_root(circle_line(mono), [0.5, 0.5], "sylvester",
                          taus=(1,))


@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_solve_size_one_resultant_falls_back_to_grid(mono, method):
    report = solve_system(shifted_coordinates(mono), method)
    assert report.resultant_size == 1
    assert_root_sets_match(report, [[0.3, 0.2]], tol=1e-12)
    assert [r.recovery for r in report.accepted] == ["grid"]


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
        monkeypatch.setattr(mod, "mp_eval", forbidden)
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
        P = rootfinder._build_resultant(hv, method, None)[0].matrix_poly
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


def differential_systems():
    """(system, method, whether the domain filter's count is decided)."""
    for basis_name in ("chebyshev", "legendre"):
        for seed in range(16):
            sys2 = random_system_with_root(2, 5, seed, basis_name)[0]
            yield sys2, "cayley", True
            yield sys2, "sylvester", True
            sys3 = random_system_with_root(3, 3, seed, basis_name)[0]
            yield sys3, "cayley", True
    # The coupled family's origin is a double root, a defective triple
    # eigenvalue of its Cayley resultant that rounding scatters to a
    # radius of about 1.2e-6: its complex pair falls on either side of
    # the 1e-6 domain margin by the last bits of M (inside with the
    # dense LU, outside with the N x N solve, 4e-16 apart).
    yield family_coupled_quadratic(0.1), "cayley", False
    yield family_coupled_quadratic(0.1), "sylvester", True
    for method in ("cayley", "sylvester"):
        yield family_rotated_quadratic(0.1), method, True


def test_solve_matches_dense_eigen_stage(monkeypatch):
    # the same solves with the eigen stage as it was: a dense LU of the
    # NK x NK pencil and SVD eigenvectors
    for sys_, method, decided in differential_systems():
        got = solve_system(sys_, method)
        with monkeypatch.context() as m:
            m.setattr(matpoly, "_inverted_pencil", dense_inverted_pencil)
            m.setattr(rootfinder, "eigvecs_and_conditions",
                      svd_eigvecs_and_conditions)
            ref = solve_system(sys_, method)
        assert ((got.n_eigenvalues, got.n_infinite, got.n_recovery_failed,
                 len(got.roots))
                == (ref.n_eigenvalues, ref.n_infinite, ref.n_recovery_failed,
                    len(ref.roots)))
        if decided:
            assert got.n_outside_domain == ref.n_outside_domain
        for g, r in zip(got.roots, ref.roots):
            assert (g.recovery, g.spurious) == (r.recovery, r.spurious)
            if not r.spurious:
                assert (np.max(np.abs(g.x - r.x))
                        <= 1e-9 * (1 + np.max(np.abs(r.x))))


def planted_shift_systems():
    """(system, planted root, method): 32 systems shaped like the
    benchmark's eig-bound solves (d = 3, degree 3, Cayley) and 64 shaped
    like its small-solve ones (d = 2, degree 5, Cayley and Sylvester),
    in the Chebyshev and Legendre bases."""
    bases = ("chebyshev", "legendre")
    for k in range(32):
        yield (*random_system_with_root(3, 3, [3, k], bases[k % 2]),
               "cayley")
    for k in range(64):
        yield (*random_system_with_root(2, 5, [3, k], bases[k // 2 % 2]),
               ("cayley", "sylvester")[k % 2])


def fates_under_shift_rotations():
    """JSON, per system of planted_shift_systems and then the coupled
    family (Cayley, root at the origin), one entry per rotation of
    _SHIFT_OFFSETS: the report's (n_eigenvalues, n_infinite,
    n_outside_domain, n_recovery_failed) and whether an accepted root
    lies within 1e-8 * (1 + |root|) of the planted one."""
    cases = list(planted_shift_systems())
    cases.append((family_coupled_quadratic(0.1), np.zeros(2), "cayley"))
    offsets = matpoly._SHIFT_OFFSETS
    out = [[] for _ in cases]
    try:
        for r in range(len(offsets)):
            matpoly._SHIFT_OFFSETS = offsets[r:] + offsets[:r]
            for row, (sys_, root, method) in zip(out, cases):
                rep = solve_system(sys_, method)
                tol = 1e-8 * (1 + np.max(np.abs(root)))
                row.append([[rep.n_eigenvalues, rep.n_infinite,
                             rep.n_outside_domain, rep.n_recovery_failed],
                            any(np.max(np.abs(a.x - root)) <= tol
                                for a in rep.accepted)])
    finally:
        matpoly._SHIFT_OFFSETS = offsets
    return json.dumps(out)


@pytest.fixture(scope="module")
def shift_rotation_fates():
    # run in a child pinned to one BLAS thread, as the benchmark runs:
    # threaded kernels round differently, and the question here is the
    # shift, not the thread count
    code = ("from test_rootfinder import fates_under_shift_rotations\n"
            "print(fates_under_shift_rotations())")
    src = os.path.dirname(os.path.dirname(matpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(__file__)]), OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_fate_counts_do_not_depend_on_shift_order(shift_rotation_fates):
    # accepted sets are not compared: far-out spurious flags still flip
    # with rounding (ROADMAP item 5)
    planted = shift_rotation_fates[:-1]
    assert len(planted) == 96
    for k, rotations in enumerate(planted):
        counts = [fates for fates, _ in rotations]
        assert counts == counts[:1] * len(counts), k
        assert all(found for _, found in rotations), k


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 5: fixed 1e-6 domain margin")
def test_coupled_family_fate_counts_do_not_depend_on_shift_order(
        shift_rotation_fates):
    counts = [fates for fates, _ in shift_rotation_fates[-1]]
    assert counts == counts[:1] * len(counts)


def test_each_solve_runs_one_eigensolve(monkeypatch):
    # no eigenvalue lands within _SHIFT_GAP of the first shift, so no
    # solve falls back to the next one
    calls = []
    eigvals = np.linalg.eigvals

    def counted(M):
        calls.append(M.shape)
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    for k, (sys_, _, method) in enumerate(planted_shift_systems()):
        calls.clear()
        solve_system(sys_, method)
        assert len(calls) == 1, k


def loop_component_from_vector(u, basis):
    """_component_from_vector for one vector, raising on no usable
    slots, as it was before stacked recovery."""
    e = len(u)
    tab = basis.table(e - 2)
    pred = u[1:] - tab.beta[:e - 1] * u[:-1]
    for i in range(e - 1):
        for j, g in tab.rows[i]:
            pred[i] -= g * u[j - 1]
    t = tab.alpha[:e - 1] * u[:-1]
    den = np.vdot(t, t).real
    if den == 0.0:
        raise RecoveryError("eigenvector has no usable basis slots")
    return np.vdot(t, pred) / den


def loop_recover_components(resultant, vec, basis):
    """recover_components for one vector, axis by axis, as it was before
    stacked recovery."""
    ext = resultant.col_extents
    V = np.asarray(vec).reshape(ext)
    ref = np.unravel_index(np.argmax(np.abs(V)), ext)
    top = abs(V[ref])
    if top == 0.0:
        raise RecoveryError("zero eigenvector")
    out = []
    how = "ratio"
    for k0, e in enumerate(ext):
        if e == 1:
            raise RecoveryError("extent one")
        idx0, idx1 = list(ref), list(ref)
        idx0[k0], idx1[k0] = 0, 1
        denom = V[tuple(idx0)]
        if abs(denom) > 1e-8 * top:
            r = V[tuple(idx1)] / denom
            out.append((r - basis.beta(0)) / basis.alpha(0))
            continue
        fiber = np.moveaxis(V, k0, 0).reshape(e, -1)
        u = np.linalg.svd(fiber)[0][:, 0]
        out.append(loop_component_from_vector(u, basis))
        how = "rank1"
    return np.array(out), how


def loop_start_points(sys_, res, kept, right, hidden):
    """_start_points as a loop over the kept eigenvalues, one recovery
    call and one np.insert each, as the solve ran before stacked
    recovery."""
    n_failed = 0
    produced = []
    for k, lam in enumerate(kept):
        try:
            comps, how = loop_recover_components(res, right[k], sys_.basis)
        except RecoveryError:
            found = rootfinder._grid_newton_candidates(sys_, lam, hidden)
            n_failed += not len(found)
            produced += [(x0, k, "grid") for x0 in found]
            continue
        produced.append((np.insert(comps, hidden, lam), k, how))
    x0 = np.array([p[0] for p in produced], dtype=complex)
    return (x0.reshape(-1, sys_.dim), np.array([p[1] for p in produced]),
            np.array([p[2] for p in produced], dtype=str), n_failed)


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


def recovery_corpus():
    """(system, method, hidden index) over every way recovery can go."""
    disc = Domain.disc(0.1 - 0.2j, 1.2)
    for basis_name in ("monomial", "chebyshev", "legendre",
                       DegreeGradedBasis("chebyshev", domain=disc)):
        for n in range(1, 7):
            sys2 = random_system_with_root(2, n, n, basis_name)[0]
            for method in ("cayley", "sylvester"):
                for hidden in range(2):
                    yield sys2, method, hidden
        for n in range(1, 4):
            sys3 = random_system_with_root(3, n, 10 + n, basis_name)[0]
            for hidden in range(3):
                yield sys3, "cayley", hidden
        for seed in range(4):
            yield random_system_with_root(3, 1, seed, basis_name)[0], \
                "cayley", seed % 3
        for u in (1e-1, 1e-3, 1e-5):
            sys_ = family_coupled_quadratic(u, basis_name)
            for method in ("cayley", "sylvester"):
                yield sys_, method, 1


def test_solve_matches_per_candidate_recovery(monkeypatch):
    labels = set()
    for sys_, method, hidden in recovery_corpus():
        opts = SolveOptions(hidden_index=hidden)
        got = solve_system(sys_, method, opts)
        with monkeypatch.context() as m:
            m.setattr(rootfinder, "_start_points", loop_start_points)
            ref = solve_system(sys_, method, opts)
        assert report_fields(got) == report_fields(ref)
        labels |= {r.recovery for r in ref.roots}
    assert labels == {"ratio", "rank1", "grid"}


@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_grid_start_points_stay_in_eigenvalue_order(method):
    # zeroed rows fail recovery between rows that pass, so their grid
    # candidates must land in their eigenvalue's place
    sys_ = random_system_with_root(2, 3, 5, "chebyshev")[0]
    res = rootfinder._build_resultant(hide_variable(sys_), method, None)[0]
    lams = polyeig(res.matrix_poly)[0]
    kept = lams[sys_.domain.contains(lams, 1e-6)]
    right = eigvecs_and_conditions(res.matrix_poly, kept)[0]
    right[::3] = 0.0
    got = rootfinder._start_points(sys_, res, kept, right, 1)
    want = loop_start_points(sys_, res, kept, right, 1)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tolist() == want[1].tolist()
    assert got[2].tolist() == want[2].tolist()
    assert got[3] == want[3]
    assert "grid" in got[2].tolist() and got[2][-1] != "grid"


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


def test_dedupe_fast_path_keeps_what_the_greedy_pass_keeps():
    rng = np.random.default_rng(9)
    tol = 1e-8
    nan = np.full(2, np.nan, dtype=complex)
    apart = [_record(rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2),
                     float(rng.uniform(0, 1e-10))) for _ in range(12)]
    pair = [_record([0.3, -0.2j], 1e-12), _record([0.3 + 1e-9, -0.2j], 1e-11)]
    nan_rows = [_record(nan, 1e-13), _record(nan, np.nan)]
    sets = [[], apart[:1], apart, apart + pair, apart + nan_rows,
            apart[:5] + nan_rows + pair + apart[5:], nan_rows]
    for records in sets:
        got = rootfinder._dedupe(records, tol)
        want = brute_force_dedupe(records, tol)
        assert [id(r) for r in got] == [id(r) for r in want]
    # NaN rows are never close to anything, themselves included
    assert len(rootfinder._dedupe(apart + nan_rows + pair, tol)) == 15
    assert len(rootfinder._dedupe(nan_rows, tol)) == 2


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
        J = eval_with_jacobian(sys_, origin)[1]
        # sigma * orthogonal: J^T J = sigma^2 I
        assert np.allclose(J.T @ J, 0.09 * np.eye(d), atol=1e-12)


def test_family_orthogonal_quadratic_chebyshev():
    sys_ = family_orthogonal_quadratic(2, 0.4, basis_name="chebyshev")
    for p in sys_.polys:
        assert abs(mp_eval(p, [0.0, 0.0])) <= 1e-13
    J = eval_with_jacobian(sys_, [0.0, 0.0])[1]
    assert np.allclose(J, 0.4 * np.eye(2), atol=1e-12)


def test_family_rotated_quadratic():
    c = s = np.sqrt(0.5)
    sys_ = family_rotated_quadratic(0.2)
    J = eval_with_jacobian(sys_, [0.0, 0.0])[1]
    assert np.allclose(J, 0.2 * np.array([[c, s], [-s, c]]), atol=1e-13)


def test_family_linear_root():
    sys_, root = family_linear(3, seed=8)
    for p in sys_.polys:
        assert abs(mp_eval(p, root)) <= 1e-12
    assert np.all(np.abs(root) <= 0.9)


@pytest.mark.parametrize("basis_name", ["monomial", "chebyshev", "legendre"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_linear_collapses_to_cramer_in_every_basis(d, basis_name):
    # the exact basis change keeps every coefficient of total degree two
    # or more at zero, so the degree bounds collapse in every basis
    for seed in range(20):
        sys_, root = family_linear(d, seed, basis_name=basis_name)
        assert default_taus(hide_variable(sys_)) == (0,) * (d - 1)
        accepted = solve_system(sys_).accepted
        assert len(accepted) == 1
        assert np.max(np.abs(accepted[0].x - root)) <= 1e-12


@pytest.mark.parametrize("basis", [
    DegreeGradedBasis.chebyshev(), DegreeGradedBasis.legendre(),
    DegreeGradedBasis.custom(
        [1.0, 0.9, 1.1, 0.8], [0.1, -0.2, 0.05, 0.0],
        [[0.3], [0.2, -0.1], [0.1, 0.05, -0.2]],
        domain=Domain.interval(-2, 1), check_normalization=False)])
def test_change_from_monomials_keeps_values_and_zeros(basis):
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    coeffs[2:, 1:] = 0.0  # no monomial reaches these slots
    mono = MultiPoly(DegreeGradedBasis.monomial(), 2, coeffs)
    p = rootfinder._from_monomials(basis, coeffs)
    assert p.basis == basis
    assert np.all(p.coeffs[2:, 1:] == 0.0)
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        want = mp_eval(mono, x)
        assert abs(mp_eval(p, x) - want) <= 1e-13 * (1 + abs(want))


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


RECORD_TYPES = {"x": np.ndarray, "hidden_value": complex,
                "residuals": np.ndarray, "max_residual": float,
                "pre_polish_residual": float, "spurious": bool,
                "eig_condition": float, "root_condition": float,
                "newton_iters": int, "recovery": str}


@pytest.mark.parametrize("polish", [True, False])
def test_records_keep_python_field_types(polish):
    opts = SolveOptions(polish=polish)
    for k, method in enumerate(["cayley", "sylvester"] * 2):
        sys_, _ = random_system_with_root(2, 4, [3, k],
                                          ("chebyshev", "legendre")[k // 2])
        report = solve_system(sys_, method, opts)
        assert report.roots
        for r in report.roots:
            for name, kind in RECORD_TYPES.items():
                assert type(getattr(r, name)) is kind, name
        # the records as built one field at a time, each scalar converted
        # by its Python type, serialize to the same bytes
        rebuilt = dataclasses.replace(report, roots=tuple(
            dataclasses.replace(
                r, hidden_value=complex(r.hidden_value),
                max_residual=float(np.max(r.residuals)),
                pre_polish_residual=float(r.pre_polish_residual),
                spurious=bool(r.spurious),
                eig_condition=float(r.eig_condition),
                root_condition=float(r.root_condition),
                newton_iters=int(r.newton_iters))
            for r in report.roots))
        assert (json.dumps(report_to_json(report))
                == json.dumps(report_to_json(rebuilt)))
        assert report_to_csv(report) == report_to_csv(rebuilt)


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

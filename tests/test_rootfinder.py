"""Pipeline tests: recovery, polishing, solving, families, reports."""

import csv
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from resultant_lab import basis as basis_mod
from resultant_lab import cayley as cayley_mod
from resultant_lab import matpoly, multipoly, rootfinder
from resultant_lab import sylvester as sylvester_mod
from resultant_lab.basis import (DegreeGradedBasis, Domain, basis_eval_all,
                                 clenshaw_shifts)
from resultant_lab.cayley import (cayley_resultant, cayley_root_eigvectors,
                                  default_taus)
from resultant_lab.matpoly import (EigenSolveError, MatrixPolynomial,
                                   _effective_degree, eigvecs, polyeig)
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem,
                                     eval_with_jacobian, hide_variable,
                                     mp_eval, mp_interpolate)
from resultant_lab.rootfinder import (RootRecord, RootReport,
                                      SolveOptions, condition_at_root,
                                      condition_sweep,
                                      family_coupled_quadratic, family_linear,
                                      family_orthogonal_quadratic,
                                      family_rotated_quadratic, newton_polish,
                                      random_system_with_root,
                                      recover_components, report_to_csv,
                                      report_to_json, solve_system)
from resultant_lab.sylvester import sylvester_resultant
from conftest import (circle_line, custom_basis, report_fields,
                      two_loop_eval_deriv)
from test_dtype_rule import in_domain
from test_matpoly import (dense_inverted_pencil, linearize, record_shifts,
                          svd_eigvecs)


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


def stacked_newton(sys_, x0, F, J):
    """rootfinder._newton on sys_'s stacked coefficient tensors."""
    stack = multipoly._stacked([p.coeffs for p in sys_.polys])
    return rootfinder._newton(sys_.basis, stack, x0, F, J)


def batched_newton(sys_, x0):
    x0 = np.asarray(x0, dtype=complex)
    F, J = multipoly.eval_with_jacobian(sys_, x0)
    return stacked_newton(sys_, x0, F, J)


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


def loop_newton(sys_, x0):
    """newton_polish's stop rules for one start as a plain loop, one
    eval_with_jacobian and one np.linalg.solve per iteration: the
    reference the batched rounds of _newton are checked against."""
    x = multipoly._demote(np.atleast_1d(x0))
    prev = np.inf
    for it in range(rootfinder._NEWTON_ITERS):
        F, J = eval_with_jacobian(sys_, x)
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return x, it, False
        size = np.max(np.abs(step))
        if size >= prev and prev <= rootfinder._ROUNDING_FLOOR * (
                1.0 + np.max(np.abs(x))):
            return x, it, True
        x = x - step
        prev = size
        if size <= rootfinder._NEWTON_TOL * (1.0 + np.max(np.abs(x))):
            return x, it + 1, True
    return x, rootfinder._NEWTON_ITERS, False


def test_batched_newton_rare_rows_are_each_the_lone_polish(mono,
                                                         monkeypatch):
    # p1 = ((x - 0.3)^2 - 1e-10) (x + 1): the roots 0.3 +- 1e-5 have
    # |p1'| ~ 2e-5, so rounding noise stalls Newton there above
    # _NEWTON_TOL and only the floor rule stops it; the root -1 is
    # well conditioned.  p2 = y (y - 2)^8: a simple root at 0, an
    # eightfold one at 2, where Newton gains a factor 8/9 a step, and
    # p2'(2) = 0 exactly.
    p1 = np.polynomial.polynomial.polyfromroots([0.3 - 1e-5, 0.3 + 1e-5,
                                                 -1.0])
    p2 = np.polynomial.polynomial.polyfromroots([0.0] + [2.0] * 8)
    sys_ = PolynomialSystem((MultiPoly(mono, 2, p1[:, None]),
                             MultiPoly(mono, 2, p2[None, :])))
    starts = np.array([[-1.0, 2.0],               # singular J at once
                       [-1.0, 1.9],               # hits _NEWTON_ITERS
                       [0.3 + 1.01e-5, 0.0],      # stops at its floor
                       [-1.0, 0.0], [-0.9, 0.1],  # converge in rounds
                       [-1.3, 0.05], [0.31, 0.0]])  # 1, 7, 6 and 15
    F, J = eval_with_jacobian(sys_, starts)
    x, iters, ok = stacked_newton(sys_, starts, F, J)
    assert iters.tolist() == [0, rootfinder._NEWTON_ITERS, 4, 1, 7, 6, 15]
    assert ok.tolist() == [False, False] + [True] * 5
    for k, x0 in enumerate(starts):
        want_x, want_iters, want_ok = newton_polish(sys_, x0)
        assert x[k].astype(complex).tobytes() == want_x.tobytes()
        assert (iters[k], ok[k]) == (want_iters, want_ok)
        loop_x, loop_iters, loop_ok = loop_newton(sys_, x0)
        assert x[k].tobytes() == loop_x.tobytes()
        assert (iters[k], ok[k]) == (loop_iters, loop_ok)
    # without the floor rule the stalled row runs to the cap
    monkeypatch.setattr(rootfinder, "_ROUNDING_FLOOR", 0.0)
    iters, ok = stacked_newton(sys_, starts, F, J)[1:]
    assert (iters[2], ok[2]) == (rootfinder._NEWTON_ITERS, False)
    assert np.delete(iters, 2).tolist() == [0, 20, 1, 7, 6, 15]


def test_batched_newton_is_the_loop_bitwise():
    # every row of a batch, real or complex, iterates as loop_newton
    # does alone: same steps, same stop, same bits
    for seed in range(12):
        d = 2 + seed % 2
        sys_, root = random_system_with_root(d, 3, seed,
                                             basis_name="chebyshev")
        rng = np.random.default_rng(seed)
        starts = root + rng.uniform(-0.3, 0.3, (8, d)) * np.logspace(
            -4, 0, 8)[:, None]
        # real starts iterate in real arithmetic, as newton_polish's do
        starts = multipoly._demote(starts + 1e-3j * (seed % 4 == 1))
        F, J = eval_with_jacobian(sys_, starts)
        x, iters, ok = stacked_newton(sys_, starts, F, J)
        for k, x0 in enumerate(starts):
            want_x, want_iters, want_ok = loop_newton(sys_, x0)
            assert x[k].tobytes() == want_x.tobytes()
            assert (iters[k], ok[k]) == (want_iters, want_ok)


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

def outer_vector(basis, extents, point):
    """The flattened outer product of the basis columns phi_0..phi_{e-1}
    at each component of point, one axis per extent."""
    V = np.ones((), dtype=complex)
    for e, x in zip(extents, point):
        V = np.multiply.outer(V, basis_eval_all(basis, e - 1, x))
    return V.ravel()


@pytest.mark.parametrize("basis_name", ["monomial", "chebyshev", "legendre"])
def test_recover_from_synthetic_cayley_vector(basis_name):
    sys_, root = random_system_with_root(3, 2, 20, basis_name=basis_name)
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    basis = sys_.basis
    vec = outer_vector(basis, res.col_extents, root)
    left = outer_vector(basis, res.row_extents, root)
    comps, how = recover_components(res, vec[None], left[None], basis)
    assert how.tolist() == ["ratio"]
    assert np.allclose(comps[0], root[:2], atol=1e-10)


def test_recover_rank1_fallback(mono):
    sys_, root = random_system_with_root(3, 2, 21)
    hv = hide_variable(sys_)
    res = cayley_resultant(hv)
    assert res.col_extents == (4, 2)
    # zero the degree-0 slot of the first axis: that slot drops out of
    # the least-squares read, which takes the component from the others
    x1, x2 = root[0], root[1]
    u0 = np.array([0.0, 1.0, x1, x1 ** 2], dtype=complex)
    u1 = np.array([1.0, x2], dtype=complex)
    vec = np.multiply.outer(u0, u1).ravel()
    # no right axis has extent one, so the left vector is never read
    left = np.full(res.matrix_poly.size, np.nan)
    comps, how = recover_components(res, vec[None], left[None], mono)
    assert how.tolist() == ["ratio"]
    assert np.allclose(comps[0], root[:2], atol=1e-9)


def shifted_coordinates(basis):
    """p_1 = x - 0.3, p_2 = y - 0.2: both resultants have size one."""
    c1 = np.zeros((2, 1), dtype=complex)
    c1[0, 0], c1[1, 0] = -0.3, 1.0
    c2 = np.zeros((1, 2), dtype=complex)
    c2[0, 0], c2[0, 1] = -0.2, 1.0
    return PolynomialSystem((MultiPoly(basis, 2, c1),
                             MultiPoly(basis, 2, c2)))


def test_recover_marks_extent_one_rows_failed(mono):
    sys_, _ = family_linear(3, seed=4)
    cayley = cayley_resultant(hide_variable(sys_))
    sylvester = sylvester_resultant(hide_variable(shifted_coordinates(mono)))
    for res in (cayley, sylvester):
        assert res.matrix_poly.size == 1
        # every row carries no component; no rows at all is a stack too
        for m in (1, 3, 0):
            comps, how = recover_components(res, np.ones((m, 1)),
                                            np.ones((m, 1)), mono)
            assert how.tolist() == [""] * m
            assert comps.shape == (m, len(res.col_extents))
            assert np.all(np.isnan(comps))
    # at d = 3, n = 1 the right vector's last axis has extent one and
    # the left vector's has two: that component is read from the left
    sys_, root = random_system_with_root(3, 1, 4)
    res = cayley_resultant(hide_variable(sys_))
    assert (res.col_extents, res.row_extents) == ((2, 1), (1, 2))
    vec = outer_vector(mono, res.col_extents, root)
    left = outer_vector(mono, res.row_extents, root)
    comps, how = recover_components(res, vec[None], left[None], mono)
    assert how.tolist() == ["ratio"]
    assert np.allclose(comps[0], root[:2], atol=1e-12)
    # a zero left vector leaves that row without its second component
    comps, how = recover_components(res, vec[None], 0 * left[None], mono)
    assert how.tolist() == [""]
    assert np.all(np.isnan(comps))


def test_recover_sylvester_vector(mono):
    sys_, root = random_system_with_root(2, 3, 22)
    hv = hide_variable(sys_)
    res = sylvester_resultant(hv)
    vec = basis_eval_all(mono, res.size - 1, root[0])[None]
    # the Sylvester left vector carries no basis structure: never read
    left = np.full_like(vec, np.nan)
    comps, how = recover_components(res, vec, left, mono)
    assert how.tolist() == ["ratio"]
    assert abs(comps[0, 0] - root[0]) <= 1e-10
    # a zero degree-0 slot drops out of the read
    vec[0, 0] = 0.0
    comps, how = recover_components(res, vec, left, mono)
    assert how.tolist() == ["ratio"]
    assert abs(comps[0, 0] - root[0]) <= 1e-10
    # a zero vector, and one whose only nonzero slot is the last, carry
    # no component
    last = np.zeros(res.size)
    last[-1] = 1.0
    comps, how = recover_components(res, np.stack([np.zeros(res.size), last]),
                                    np.concatenate([left, left]), mono)
    assert how.tolist() == ["", ""]
    assert np.all(np.isnan(comps))


@pytest.mark.parametrize("basis_name,x1,zero_slot0", [
    ("monomial", 30.0, False), ("chebyshev", 3.0, False),
    ("legendre", 3.0, False), ("monomial", 0.7, True)])
def test_far_out_components_keep_their_digits(basis_name, x1, zero_slot0):
    # unit structured vectors plus 1e-13 noise: a read that leans on
    # slot 0 alone (1e-8 of the largest entry at x1 = 30 in the monomial
    # basis) loses digits the least-squares read over every slot keeps
    sys_ = random_system_with_root(3, 3, 0, basis_name)[0]
    res = cayley_resultant(hide_variable(sys_))
    ext = res.col_extents
    assert ext == (6, 3)
    point = np.array([x1, -0.4])
    V = outer_vector(sys_.basis, ext, point).reshape(ext)
    if zero_slot0:
        V[0] = 0.0
    V = V.ravel() / np.linalg.norm(V)
    rng = np.random.default_rng(1)
    noise = rng.standard_normal((50, V.size, 2)) @ [1.0, 1j]
    vecs = V + 1e-13 * noise
    left = np.full_like(vecs, np.nan)  # every right axis has extent two
    comps, how = recover_components(res, vecs, left, sys_.basis)
    assert set(how) == {"ratio"}
    assert np.all(np.abs(comps - point) <= 1e-10 * (1 + np.abs(point)))
    # a zero vector and a vector whose only nonzero slot is the last
    # carry no component
    last = np.zeros(V.size, dtype=complex)
    last[-1] = 1.0
    fail = np.stack([0 * V, last])
    comps, how = recover_components(res, fail, left[:2], sys_.basis)
    assert how.tolist() == ["", ""]
    assert np.all(np.isnan(comps))


def recovery_stack(res, basis, seed):
    """Right and left vectors of res in the order a solve meets them,
    plus structured pairs at random points with slot 0 of one axis
    zeroed in both, a zero pair and a pair whose only nonzero slot is
    the last one of every axis (its read has no usable slots).
    Sylvester left vectors take the right vectors' shape; they are
    never read."""
    P = res.matrix_poly
    lams = polyeig(P)[0]
    right, left = eigvecs(P, lams)[:2]
    rights, lefts = [right], [left]
    col = res.col_extents
    row = getattr(res, "row_extents", col)
    rng = np.random.default_rng(seed)
    for k0 in range(len(col)):
        pts = rng.uniform(-0.9, 0.9, len(col))
        for ext, out in ((col, rights), (row, lefts)):
            V = outer_vector(basis, ext, pts).reshape(ext)
            np.moveaxis(V, k0, 0)[0] = 0.0
            out.append(V.reshape(1, -1))
    for ext, out in ((col, rights), (row, lefts)):
        last = np.zeros(ext, dtype=complex)
        last[tuple(e - 1 for e in ext)] = 1.0
        out += [np.zeros((1, P.size), dtype=complex), last.reshape(1, -1)]
    return np.concatenate(rights), np.concatenate(lefts)


@pytest.mark.parametrize("basis_name", ["monomial", "chebyshev", "legendre"])
@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_stacked_recovery_matches_per_vector_calls(basis_name, method):
    # one call over the stack against one call per row; the last system
    # is d = 3, n = 1 for Cayley, whose second component comes from the
    # left vector
    labels = []
    for seed in range(4):
        d = 3 if method == "cayley" and seed >= 2 else 2
        n = 1 if seed == 3 else 3
        sys_ = random_system_with_root(d, n, seed, basis_name)[0]
        res = rootfinder._build_resultant(hide_variable(sys_), method,
                                          None)[0]
        vecs, lefts = recovery_stack(res, sys_.basis, seed)
        comps, how = recover_components(res, vecs, lefts, sys_.basis)
        assert comps.shape == (len(vecs), len(res.col_extents))
        assert how.shape == (len(vecs),)
        for k, (vec, left) in enumerate(zip(vecs, lefts)):
            want, want_how = recover_components(res, vec[None], left[None],
                                                sys_.basis)
            assert how[k] == want_how[0]
            assert comps[k].tobytes() == want[0].tobytes()
        labels += how.tolist()
    # the stacks hold every outcome: the zero row and the last-slot row
    # fail, the rows with zeroed slots are read
    assert set(labels) == {"ratio", ""}


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
    # a resultant of size one carries no component: the sub-solve, a
    # solve of d - 1 combinations at x_d = lambda, gives the only start
    sys_, root = family_linear(d, seed=60 + d)
    report = solve_system(sys_)
    assert report.resultant_size == 1
    assert len(report.accepted) == 1
    rec = report.accepted[0]
    assert rec.recovery == "subsolve"
    assert np.allclose(rec.x, root, atol=1e-9)
    assert len(report.roots) == 1
    assert report.n_recovery_failed == 0


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
        return eigvecs(P, lams)

    monkeypatch.setattr(rootfinder, "eigvecs", counting)
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


@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_solve_size_one_resultant_falls_back_to_grid(mono, method):
    report = solve_system(shifted_coordinates(mono), method)
    assert report.resultant_size == 1
    assert_root_sets_match(report, [[0.3, 0.2]], tol=1e-12)
    assert [r.recovery for r in report.accepted] == ["subsolve"]


def test_hidden_index_override(mono):
    # hide the first variable instead of the last
    report = solve_system(circle_line(mono),
                          options=SolveOptions(hidden_index=0))
    assert report.hidden_index == 0
    assert_root_sets_match(report, [(0.5, 0.5), (-0.5, -0.5)], tol=1e-10)


def _forbid_loose_evaluation(monkeypatch):
    """Make every point evaluation outside the Jacobian kernel raise, and
    record the points of each kernel call made through rootfinder, one
    (points, d) array per call.  The kernel is _jacobian_and_table, which
    gives the basis table at the points along with F and J."""
    def forbidden(*args, **kwargs):
        raise AssertionError("point evaluation outside the Jacobian kernel")

    for mod in (rootfinder, multipoly):
        monkeypatch.setattr(mod, "mp_eval", forbidden)
    calls = []

    def counting_table_kernel(basis, stack, pts, kmax):
        calls.append(np.array(pts).reshape(-1, len(stack)))
        return multipoly._jacobian_and_table(basis, stack, pts, kmax)

    monkeypatch.setattr(rootfinder, "_jacobian_and_table",
                        counting_table_kernel)
    return calls


def test_solve_evaluates_only_through_the_kernel(monkeypatch):
    sys_, root = random_system_with_root(2, 3, 6, basis_name="chebyshev")
    linear, _ = family_linear(2, seed=5)  # sub-solve path
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
    assert all(r.recovery != "subsolve" for r in report.roots)
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


# numpy functions whose Python-level argument handling costs more than
# the arithmetic at the sizes of a solve or a probe, by owner
_NUMPY_WRAPPERS = ((np, "moveaxis"), (np, "expand_dims"), (np, "prod"),
                   (np, "broadcast_to"), (np.linalg, "norm"))


def test_warm_paths_make_no_numpy_wrapper_calls(monkeypatch):
    # a warm solve (Cayley d = 2 and 3, Sylvester) and a warm probe run
    # the primitives behind these wrappers, not the wrappers
    cubic, cubic_root = random_system_with_root(3, 2, 4, "chebyshev")
    planar, root = random_system_with_root(2, 4, 4, "legendre")

    def run():
        for sys_, method in ((cubic, "cayley"), (planar, "cayley"),
                             (planar, "sylvester")):
            assert solve_system(sys_, method).accepted
        condition_at_root(cubic, cubic_root, "cayley")
        for method in ("cayley", "sylvester"):
            condition_at_root(planar, root, method)

    run()  # fill the plans
    calls = []
    for owner, name in _NUMPY_WRAPPERS:
        def counted(*args, _real=getattr(owner, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    run()
    assert calls == []


@pytest.mark.parametrize("method", ["cayley", "sylvester"])
@pytest.mark.parametrize("root,match", [
    ([0.1, np.nan], r"non-finite root components at index \(1,\)$"),
    ([np.inf, 0.1], r"non-finite root components at index \(0,\)$"),
    ([0.1, 0.2, 0.3], "root must have length 2"),
    ([0.1], "root must have length 2"),
], ids=["nan", "inf", "long", "short"])
def test_condition_at_root_checks_the_root_first(monkeypatch, method, root,
                                                 match):
    # a bad root fails with its own message before the variable is
    # hidden or a resultant is built
    sys_ = circle_line(DegreeGradedBasis.monomial())
    built = []

    def spy(name, real):
        def recorded(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return recorded

    for mod, name in ((rootfinder, "hide_variable"),
                      (rootfinder, "_build_resultant"),
                      (multipoly, "_stacked")):
        monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    with pytest.raises(ValueError, match=match):
        condition_at_root(sys_, root, method)
    assert built == []
    condition_at_root(sys_, [0.5, 0.5], method)
    assert built[:2] == ["hide_variable", "_stacked"]


def test_conjugate_pairs_list_negative_imaginary_part_first():
    # real systems on a disc have roots in conjugate pairs, whose hidden
    # components have real parts equal up to rounding: the member with
    # negative imaginary part comes first, whatever the last bit of Re
    disc = Domain.disc(0.1 + 0.05j, 1.2)
    tol = rootfinder._DEDUPE_TOL
    pairs = 0
    for name in ("chebyshev", "legendre"):
        basis = DegreeGradedBasis(name, domain=disc)
        for seed in range(4):
            for d, n, methods in ((2, 4, ("cayley", "sylvester")),
                                  (3, 2, ("cayley",))):
                sys_, _ = random_system_with_root(d, n, seed, basis)
                for method in methods:
                    rep = solve_system(sys_, method)
                    z = [r.x[rep.hidden_index] for r in rep.roots]
                    for i, j in itertools.permutations(range(len(z)), 2):
                        if (z[i].imag < 0 < z[j].imag
                                and abs(z[i] - z[j].conjugate())
                                <= tol * (1 + abs(z[j]))):
                            pairs += 1
                            assert i < j, (name, seed, d, method, z[i], z[j])
    assert pairs > 100


def test_warm_solve_contracts_without_tensordot(monkeypatch):
    # every contraction of a coefficient stack is one np.dot, and
    # polyeig evaluates P(mu) once per shift it tries: the matrix whose
    # singular values witness regularity is the one it factors
    sys_, _ = random_system_with_root(2, 4, 12, "chebyshev")
    linear, _ = family_linear(2, seed=5)  # sub-solve path
    for method in ("cayley", "sylvester"):  # warm the plans
        solve_system(sys_, method)
    solve_system(linear)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    monkeypatch.setattr(np, "tensordot", forbidden)
    evaluated, inverted = record_shifts(monkeypatch)
    shifts = matpoly._shifts(sys_.domain)
    for method in ("cayley", "sylvester"):
        evaluated.clear()
        inverted.clear()
        assert solve_system(sys_, method).accepted
        assert evaluated == inverted == shifts[:1]
    # the resultant's polyeig and the sub-solve's, one shift each
    evaluated.clear()
    inverted.clear()
    report = solve_system(linear)
    assert [r.recovery for r in report.roots] == ["subsolve"]
    assert evaluated == inverted == shifts[:1] * 2
    # a pencil that is not finite at the first shift moves polyeig on
    recording = matpoly._inverted_pencil

    def poisoned_first(P, mu, *rest):
        M = recording(P, mu, *rest)
        if len(inverted) == 1:
            M[0, 0] = np.nan
        return M

    monkeypatch.setattr(matpoly, "_inverted_pencil", poisoned_first)
    evaluated.clear()
    inverted.clear()
    assert solve_system(sys_).accepted
    assert evaluated == inverted == shifts[:2]


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
    # 1/sigma.  coupled: the origin is a root of multiplicity 3 (its
    # Jacobian is u c [[1, 1], [1, 1]]), where a root passing the
    # residual test can sit up to about sqrt(tol_accept) away from it.
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
    # The coupled family's origin is a root of multiplicity 3, a
    # defective triple eigenvalue of its Cayley resultant that rounding
    # scatters to a radius of about 1.2e-6: its complex pair falls on
    # either side of the 1e-6 domain margin by the last bits of M
    # (inside with the dense LU, outside with the N x N solve, 4e-16
    # apart).
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
            m.setattr(rootfinder, "eigvecs", svd_eigvecs)
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
    n_outside_domain, n_recovery_failed), whether an accepted root
    lies within 1e-8 * (1 + |root|) of the planted one, and the first
    shift that reached _inverted_pencil, as (real, imag).  The plan
    caches the shifts, so it is cleared after each rotation."""
    cases = list(planted_shift_systems())
    cases.append((family_coupled_quadratic(0.1), np.zeros(2), "cayley"))
    offsets = matpoly._SHIFT_OFFSETS
    inverted = matpoly._inverted_pencil
    mus = []

    def recording(P, mu, *table):
        mus.append(complex(mu))
        return inverted(P, mu, *table)

    out = [[] for _ in cases]
    matpoly._inverted_pencil = recording
    try:
        for r in range(len(offsets)):
            matpoly._SHIFT_OFFSETS = offsets[r:] + offsets[:r]
            matpoly._plan.cache_clear()
            for row, (sys_, root, method) in zip(out, cases):
                mus.clear()
                rep = solve_system(sys_, method)
                tol = 1e-8 * (1 + np.max(np.abs(root)))
                row.append([[rep.n_eigenvalues, rep.n_infinite,
                             rep.n_outside_domain, rep.n_recovery_failed],
                            any(np.max(np.abs(a.x - root)) <= tol
                                for a in rep.accepted),
                            [mus[0].real, mus[0].imag]])
    finally:
        matpoly._SHIFT_OFFSETS = offsets
        matpoly._inverted_pencil = inverted
        matpoly._plan.cache_clear()
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
    for k, rotations in enumerate(shift_rotation_fates):
        # each rotation took effect: every solve began at another shift
        first = {tuple(mu) for _, _, mu in rotations}
        assert len(first) == len(rotations) == 3, k
    for k, rotations in enumerate(planted):
        counts = [fates for fates, _, _ in rotations]
        assert counts == counts[:1] * len(counts), k
        assert all(found for _, found, _ in rotations), k


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 10: fixed 1e-6 domain margin")
def test_coupled_family_fate_counts_do_not_depend_on_shift_order(
        shift_rotation_fates):
    counts = [fates for fates, _, _ in shift_rotation_fates[-1]]
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


class RecoveryFailed(Exception):
    """The reference recovery found no component for one vector."""


def loop_component_from_fibers(U, basis):
    """_component_from_fibers for the (e, r) fibers of one vector,
    raising where the read fails."""
    e = len(U)
    tab = basis.table(e - 2)
    U = np.ascontiguousarray(U, dtype=np.result_type(U, tab.dtype))
    pred = U[1:] - tab.beta[:e - 1, None] * U[:-1]
    for i in range(e - 1):
        for j, g in tab.rows[i]:
            pred[i] -= g * U[j - 1]
    a = tab.alpha[:e - 1, None] * U[:-1]
    den = np.sum((a.conj() * a).real)
    num = np.sum(a.conj() * pred)
    if not (den != 0.0 and np.isfinite(den) and np.isfinite(num)):
        raise RecoveryFailed("eigenvector has no usable basis slots")
    return num / den


def loop_recover_components(resultant, vec, left, basis):
    """recover_components for one pair of vectors, axis by axis: each
    axis from the right vector, or from the Cayley left vector where
    the right one has extent one."""
    col = resultant.col_extents
    row = getattr(resultant, "row_extents", (1,) * len(col))
    out = []
    for k0, e in enumerate(col):
        V, ext = np.asarray(vec).reshape(col), col
        if e == 1:
            if row[k0] == 1:
                raise RecoveryFailed("extent one")
            V, ext = np.asarray(left).reshape(row), row
        fibers = np.moveaxis(V, k0, 0).reshape(ext[k0], -1)
        out.append(loop_component_from_fibers(fibers, basis))
    return np.array(out), "ratio"


def loop_start_points(hv, res, kept, right, left, eig_residual):
    """_start_points as a loop over the kept eigenvalues, one recovery
    call and one np.insert each, as the solve ran before stacked
    recovery."""
    produced = []
    for k, lam in enumerate(kept):
        try:
            comps, how = loop_recover_components(res, right[k], left[k],
                                                 hv.basis)
        except RecoveryFailed:
            found = rootfinder._subsolve(hv, lam)
            produced += [(x0, k, "subsolve") for x0 in found]
            continue
        produced.append((np.insert(comps, hv.hidden_index, lam), k, how))
    x0 = np.array([p[0] for p in produced], dtype=complex)
    owner = np.array([p[1] for p in produced], dtype=int)
    return rootfinder._Candidates(
        lams=kept, owner=owner,
        x0=multipoly._demote(x0.reshape(-1, hv.dim)),
        recovery=np.array([p[2] for p in produced], dtype=str),
        eig_residual=eig_residual[owner])


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
    assert labels == {"ratio", "subsolve"}


@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_grid_start_points_stay_in_eigenvalue_order(method):
    # zeroed rows fail recovery between rows that pass, so their
    # sub-solve candidates must land in their eigenvalue's place
    sys_ = random_system_with_root(2, 3, 5, "chebyshev")[0]
    hv = hide_variable(sys_)
    res = rootfinder._build_resultant(hv, method, None)[0]
    lams = polyeig(res.matrix_poly)[0]
    kept = lams[sys_.domain.contains(lams, 1e-6)]
    right, left, eig_res = eigvecs(res.matrix_poly, kept)
    right[::3] = 0.0
    got = rootfinder._start_points(hv, res, kept, right, left, eig_res)
    want = loop_start_points(hv, res, kept, right, left, eig_res)
    assert got.x0.tobytes() == want.x0.tobytes()
    assert got.owner.tolist() == want.owner.tolist()
    assert got.recovery.tolist() == want.recovery.tolist()
    assert got.eig_residual.tobytes() == want.eig_residual.tobytes()
    assert "subsolve" in got.recovery and got.recovery[-1] != "subsolve"


def planted_degree_one_systems(basis_name, seeds):
    """(system, planted root, hidden index) for d = 3 systems of degree
    one, whose Cayley right vectors have an axis of extent one, at
    every hidden index."""
    for seed in range(seeds):
        sys_, root = random_system_with_root(3, 1, seed, basis_name)
        for hidden in range(3):
            yield sys_, root, hidden


@pytest.mark.parametrize("basis_name,seeds", [("chebyshev", 200),
                                              ("monomial", 50),
                                              ("legendre", 50)])
def test_degree_one_solves_keep_their_planted_root(basis_name, seeds):
    # every right vector here has an axis of extent one, so each solve
    # reads one component from the left vector
    for sys_, root, hidden in planted_degree_one_systems(basis_name, seeds):
        rep = solve_system(sys_, options=SolveOptions(hidden_index=hidden))
        assert rep.n_recovery_failed == 0, (root, hidden)
        tol = 1e-8 * (1 + np.max(np.abs(root)))
        assert any(np.max(np.abs(r.x - root)) <= tol
                   for r in rep.accepted), (root, hidden)


@pytest.mark.parametrize("hidden", range(3))
def test_degree_one_components_come_from_the_left_vector(hidden):
    sys_, root = random_system_with_root(3, 1, 22, "chebyshev")
    rep = solve_system(sys_, options=SolveOptions(hidden_index=hidden))
    assert rep.roots and rep.n_recovery_failed == 0
    assert {r.recovery for r in rep.roots} == {"ratio"}
    # at the planted eigenvalue the computed left vector is the
    # structured one, and the axis on which the right vector has extent
    # one reads the planted component from it
    hv = hide_variable(sys_, hidden)
    res = cayley_resultant(hv)
    assert (res.col_extents, res.row_extents) == ((2, 1), (1, 2))
    v, w = cayley_root_eigvectors(hv, root, res)
    P = res.matrix_poly
    lams = polyeig(P)[0]
    lam = lams[np.argmin(np.abs(lams - root[hidden]))][None]
    right, left = eigvecs(P, lam)[:2]
    assert abs(np.vdot(left[0], w)) >= (1 - 1e-12) * np.linalg.norm(w)
    comps, how = recover_components(res, right, left, sys_.basis)
    free = root[list(hv.free_order)]
    assert how.tolist() == ["ratio"]
    assert abs(comps[0, 1] - free[1]) <= 1e-10
    assert abs(comps[0, 0] - free[0]) <= 1e-10
    # the same components from the structured vectors themselves
    comps, _ = recover_components(res, v[None], w[None], sys_.basis)
    assert np.allclose(comps[0], free, atol=1e-13)


def test_failed_subsolve_counts_as_recovery_failed(monkeypatch):
    # the first polyeig is the solve's own; every later one is a
    # sub-solve's, at d = 2 directly and at d = 3 inside solve_system
    calls = []

    def failing(P):
        calls.append(P.size)
        if len(calls) > 1:
            raise EigenSolveError("no usable shift")
        return polyeig(P)

    monkeypatch.setattr(rootfinder, "polyeig", failing)
    for sys_ in (random_system_with_root(2, 1, 3, "chebyshev")[0],
                 family_linear(2, seed=5)[0], family_linear(3, seed=5)[0]):
        calls.clear()
        rep = solve_system(sys_)
        assert rep.resultant_size == 1 and rep.roots == ()
        kept = rep.n_eigenvalues - rep.n_outside_domain
        assert rep.n_recovery_failed == kept
        assert len(calls) == 1 + rep.n_recovery_failed > 1


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


def dedupe_records(records, tol):
    """_dedupe on the records' x and max_residual: the records it keeps,
    in its order."""
    x = np.array([r.x for r in records] or np.empty((0, 1)), dtype=complex)
    kept, _ = rootfinder._dedupe(x, np.array(
        [r.max_residual for r in records], dtype=float), tol)
    return [records[i] for i in kept]


def brute_force_dedupe(records, tol):
    """The pairwise loop the vectorised _dedupe must reproduce, over the
    records in order of max_residual, NaN last."""
    kept = []
    for rec in sorted(records, key=lambda r: (np.isnan(r.max_residual),
                                              r.max_residual)):
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
    kept = dedupe_records([inside, outside, base], tol)
    assert kept == [base, outside]
    assert dedupe_records([], tol) == []


def test_dedupe_lower_residual_survives():
    worse = _record([0.1, 0.2 + 0.3j], 1e-9)
    better = _record([0.1, 0.2 + 0.3j], 1e-13)
    assert dedupe_records([worse, better], 1e-8) == [better]


def test_dedupe_compares_with_kept_records_only():
    # b is within tol of a and dropped; c is within tol of b but not of a,
    # and survives because b was never kept
    a = _record([0.0, 0.0], 1e-15)
    b = _record([0.9e-8, 0.0], 1e-14)
    c = _record([1.8e-8, 0.0], 1e-13)
    assert dedupe_records([c, b, a], 1e-8) == [a, c]


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
        got = dedupe_records(records, tol)
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
        got = dedupe_records(records, tol)
        want = brute_force_dedupe(records, tol)
        assert [id(r) for r in got] == [id(r) for r in want]
    # NaN rows are never close to anything, themselves included
    assert len(dedupe_records(apart + nan_rows + pair, tol)) == 15
    assert len(dedupe_records(nan_rows, tol)) == 2


def test_dedupe_marks_each_duplicate_with_a_kept_row():
    # clusters of near-equal rows with ties on max_residual, and in every
    # other trial a NaN max_residual: the kept rows and their order are
    # those of sorting records by max_residual, NaN last, and each other
    # row names the first kept row, in that order, within tol of it
    rng = np.random.default_rng(10)
    tol = 1e-8
    for trial in range(60):
        centres = rng.uniform(-1, 1, (4, 2)) + 1j * rng.uniform(-1, 1, (4, 2))
        m = int(rng.integers(2, 25))
        x = centres[rng.integers(4, size=m)] + tol * rng.uniform(-2, 2, (m, 2))
        res = rng.choice([1e-15, 1e-13, 1e-11], size=m)
        if trial % 2:
            res[rng.integers(m)] = np.nan
        records = [_record(xk, float(r)) for xk, r in zip(x, res)]
        kept, merged = rootfinder._dedupe(x, res, tol)
        assert [records[i] for i in kept] == brute_force_dedupe(records, tol)
        assert sorted(kept) == np.nonzero(merged < 0)[0].tolist()
        for k in np.nonzero(merged >= 0)[0]:
            j = merged[k]
            assert (np.max(np.abs(x[k] - x[j]))
                    <= tol * (1 + np.max(np.abs(x[j]))))
            for i in kept[:kept.index(j)]:
                assert (np.max(np.abs(x[k] - x[i]))
                        > tol * (1 + np.max(np.abs(x[i]))))
            # a row with a residual merges into one with no larger
            # residual, whatever NaN keys other rows hold
            if not np.isnan(res[k]):
                assert res[j] <= res[k]
    # of two tied rows the first is kept
    x = np.array([[0.5, 0.1], [0.5 + 1e-9, 0.1]])
    kept, merged = rootfinder._dedupe(x, np.array([1e-13, 1e-13]), tol)
    assert (kept, merged.tolist()) == ([0], [-1, 0])


def coupled_solves():
    """(system, table) for the coupled family, whose triple root at the
    origin has a singular Jacobian: rows near it run to the iteration
    cap, stop on a singular J or end as duplicates."""
    for u in (1e-1, 1e-3, 1e-4, 1e-7):
        for basis_name in ("monomial", "chebyshev"):
            sys_ = family_coupled_quadratic(u, basis_name)
            for method in ("cayley", "sylvester"):
                yield sys_, solve_system(sys_, method)._table


def test_converged_column_is_newton_polish_flag():
    # a row is unconverged exactly when it ran to the cap or stopped on a
    # J with no solve, and its flag and iterations are newton_polish's
    cap = rootfinder._NEWTON_ITERS
    stops, compared = set(), set()
    for sys_, t in coupled_solves():
        for k, x0 in enumerate(t.x0):
            if t.converged[k]:
                stop = "converged"
            elif t.iters[k] == cap:
                stop = "cap"
            else:
                stop = "singular J"
                F, J = eval_with_jacobian(sys_, t.x[k])
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(J, F)
            stops.add(stop)
            # newton_polish demotes a start with no imaginary part, and
            # near the singular root real and complex arithmetic part
            if multipoly._demote(x0).dtype != t.x0.dtype:
                continue
            x, iters, ok = newton_polish(sys_, x0)
            assert (t.iters[k], t.converged[k]) == (iters, ok)
            if ok:
                assert np.max(np.abs(t.x[k] - x)) <= 1e-12 * (
                    1 + np.max(np.abs(x)))
            compared.add(stop)
    assert stops == {"converged", "cap", "singular J"}
    assert compared >= {"converged", "cap"}


def test_merged_into_names_a_surviving_row_of_the_solve():
    merged_rows = 0
    for sys_, t in coupled_solves():
        kept = np.nonzero(t.merged_into < 0)[0]
        res = t.residuals.max(axis=1)
        for k in np.nonzero(t.merged_into >= 0)[0]:
            j = t.merged_into[k]
            assert j in kept
            assert (np.max(np.abs(t.x[k] - t.x[j]))
                    <= rootfinder._DEDUPE_TOL * (1 + np.max(np.abs(t.x[j]))))
            assert res[j] <= res[k]
            merged_rows += 1
    assert merged_rows


def test_fates_take_the_best_row_of_each_eigenvalue():
    # rows of eigenvalue 0: a duplicate and an accepted row; of 1: a
    # duplicate and a spurious row; 2 has none; 3: two duplicates
    t = rootfinder._Candidates(
        lams=np.zeros(4), owner=np.array([0, 0, 1, 1, 3, 3]), x0=None,
        recovery=None, eig_residual=None, n_outside=5,
        spurious=np.array([True, False, False, True, False, False]),
        merged_into=np.array([1, -1, 1, -1, 1, 3]))
    assert t.fates() == {"outside domain": 5, "recovery failed": 1,
                         "duplicate": 1, "spurious": 1, "accepted": 1}


def benchmark_corpus(workload, seed):
    """(system, method, N, K) over the benchmark's eig-bound (first 128
    items) or small-solve (all 1,024 items) corpus, drawn as its
    workloads draw them: item i from the seed (seed, i), kinds in turn,
    with the pencil size N x K each kind's resultant has."""
    if workload == "eig-bound":
        kinds = [(3, 3, b, "cayley", 18, 9) for b in ("chebyshev", "legendre")]
        count = 128
    else:
        kinds = [(2, 5, b, m, n, k) for b in ("chebyshev", "legendre")
                 for m, n, k in (("cayley", 5, 10), ("sylvester", 10, 5))]
        count = 1024
    for i in range(count):
        d, degree, basis_name, method, n, k = kinds[i % len(kinds)]
        sys_ = random_system_with_root(d, degree, [seed, i], basis_name)[0]
        yield sys_, method, n, k


@pytest.mark.parametrize("workload", ["eig-bound", "small-solve"])
def test_every_eigenvalue_has_one_fate_on_the_benchmark_corpora(workload):
    for seed in (1, 7):
        for sys_, method, n, k in benchmark_corpus(workload, seed):
            rep = solve_system(sys_, method)
            t = rep._table
            fates = t.fates()
            assert rep.resultant_size == n
            assert sum(fates.values()) + rep.n_infinite == n * k
            assert fates["outside domain"] == rep.n_outside_domain
            assert fates["recovery failed"] == rep.n_recovery_failed
            # one row per kept eigenvalue here, so each accepted or
            # spurious eigenvalue is one record
            assert t.owner.tolist() == list(range(len(t.lams)))
            accepted = len(rep.accepted)
            assert fates["accepted"] == accepted
            assert fates["spurious"] == len(rep.roots) - accepted
            assert fates["duplicate"] == len(t.owner) - len(rep.roots)


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
    custom_basis(
        [1.0, 0.9, 1.1, 0.8], [0.1, -0.2, 0.05, 0.0],
        [[0.3], [0.2, -0.1], [0.1, 0.05, -0.2]],
        domain=Domain.interval(-2, 1))])
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
def test_family_coupled_quadratic_origin_is_a_triple_root(u):
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


@pytest.mark.parametrize("d,method", [(2, "cayley"), (2, "sylvester"),
                                      (3, "cayley")])
def test_rayleigh_is_the_jacobian_det_signed_by_the_hidden_index(d, method):
    # Cramer's rule: w^T R'(z) v = (-1)**(d - 1 - h) det J with variable
    # h hidden
    for seed in range(3):
        sys_, root = random_system_with_root(d, 3, seed, "chebyshev")
        for h in range(d):
            rec = condition_at_root(sys_, root, method, hidden_index=h)
            assert rec.rayleigh == pytest.approx(
                (-1) ** (d - 1 - h) * rec.jacobian_det, rel=1e-10)


def three_recurrence_condition(sys_, root, method, hidden_index=None):
    """The fields of condition_at_root's record from three recurrences
    at the root: basis_eval_all at the free components for v and w (and
    at the hidden one for q_1 and q_2 in the Sylvester left vector), the
    two-loop value/derivative recurrence at z for R(z) and R'(z), and
    again at every component for J, with the tensors stacked for it and
    the table copied into (m, d, 2, e) layout."""
    root = multipoly._demote(np.atleast_1d(root))
    hv = hide_variable(sys_, hidden_index)
    basis, d = sys_.basis, sys_.dim
    free, z = root[list(hv.free_order)], root[hv.hidden_index]
    if method == "cayley":
        res = cayley_resultant(hv)
        phis = basis_eval_all(basis, max(res.row_extents) - 1, free)
        v, w = (reduce(np.multiply.outer, [phis[:e, k] for k, e in
                                           enumerate(ext)]).ravel()
                for ext in (res.col_extents, res.row_extents))
    else:
        res = sylvester_resultant(hv)
        n, y = res.size, free[0]
        v = basis_eval_all(basis, n - 1, y)
        u1, u2 = (hv.q_at(c, z).coeffs[:tau + 1]
                  for c, tau in enumerate((res.tau1, res.tau2)))
        alpha = basis.table(n - 2).alpha
        w = np.empty(n, dtype=np.result_type(u1, u2, y, alpha))
        w[:res.tau2] = (-alpha[:res.tau2]
                        * clenshaw_shifts(basis, u2, y)[:res.tau2])
        w[res.tau2:] = (alpha[:res.tau1]
                        * clenshaw_shifts(basis, u1, y)[:res.tau1])
    P = res.matrix_poly
    dP = np.tensordot(two_loop_eval_deriv(basis, P.degree, z)[1], P.coeffs,
                      axes=([0], [0]))
    ray = complex(w @ (dP @ v))
    scale = np.linalg.norm(v) * np.linalg.norm(w)
    t = multipoly._stacked([p.coeffs for p in sys_.polys])[None]
    ext = t.shape[2:]
    vd = np.stack(two_loop_eval_deriv(basis, max(ext) - 1, root[None]),
                  axis=-1).transpose(1, 2, 3, 0)
    for a in reversed(range(d)):
        t = np.einsum("mbe,mrek->mrbk", vd[:, a, :, :ext[a]],
                      t.reshape(1, -1, ext[a], 2 ** (d - 1 - a)))
    J = t.reshape(d, 2 ** d)[:, 2 ** np.arange(d - 1, -1, -1)]
    return (root.astype(complex), float(scale / abs(ray)), ray,
            complex(np.linalg.det(J)),
            float(multipoly._root_conditions(J)))


def test_condition_record_is_bitwise_the_three_recurrence_one():
    # 32 systems of each cond-probe shape, half in each basis, at the
    # planted root; the bivariate ones also by Sylvester and with the
    # first variable hidden
    cases = []
    for d, n in ((3, 3), (2, 8)):
        for i in range(32):
            basis = ("chebyshev", "legendre")[i % 2]
            sys_, root = random_system_with_root(d, n, [1, d, i], basis)
            cases += [(sys_, root, "cayley", None), (sys_, root, "cayley", 0)]
            if d == 2:
                cases += [(sys_, root, "sylvester", None),
                          (sys_, root, "sylvester", 0)]
    for sys_, root, method, hidden in cases:
        rec = condition_at_root(sys_, root, method, hidden_index=hidden)
        got = (rec.root, rec.eig_condition, rec.rayleigh, rec.jacobian_det,
               rec.root_condition)
        want = three_recurrence_condition(sys_, root, method, hidden)
        assert [np.asarray(g).tobytes() for g in got] == [
            np.asarray(w).tobytes() for w in want]


@pytest.mark.parametrize("hidden", [None, 0])
@pytest.mark.parametrize("d, n, method", [(3, 3, "cayley"), (2, 5, "cayley"),
                                          (2, 5, "sylvester")])
def test_solve_kappa_eig_is_the_probes_at_the_root(d, n, method, hidden):
    # the benchmark's solve shapes: a solve measures kappa_eig at each
    # polished root by condition_at_root's rule, so the two agree to
    # rounding at every in-domain accepted record
    checked = 0
    for i in range(4):
        basis = ("chebyshev", "legendre")[i % 2]
        sys_ = random_system_with_root(d, n, [1, d, i], basis)[0]
        rep = solve_system(sys_, method, SolveOptions(hidden_index=hidden))
        for r in in_domain(rep):
            rec = condition_at_root(sys_, r.x, method, hidden)
            assert r.eig_condition == pytest.approx(rec.eig_condition,
                                                    rel=1e-10)
            assert r.root_condition == pytest.approx(rec.root_condition,
                                                     rel=1e-10)
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("basis_name", ["monomial", "chebyshev"])
@pytest.mark.parametrize("method", ["cayley", "sylvester"])
def test_kappa_eig_is_infinite_exactly_where_kappa_root_is(method,
                                                           basis_name):
    # the coupled origin has a singular Jacobian; near it the two
    # condition numbers rest on one decision, _root_conditions'
    for u in (1e-1, 1e-2, 1e-4, 1e-7):
        rep = solve_system(family_coupled_quadratic(u, basis_name), method)
        assert rep.accepted
        for r in rep.roots:
            assert np.isinf(r.eig_condition) == np.isinf(r.root_condition), (
                u, r.x, r.eig_condition, r.root_condition)


def test_one_recurrence_and_one_stack_per_call(monkeypatch):
    # condition_at_root evaluates the basis at the root once, in the
    # fused value/derivative recurrence, and stacks the system once, for
    # its Jacobian and the Cayley construction; a solve and a Newton
    # polish stack the system once, for every point set they evaluate
    # and, in a solve, the construction
    sys_, root = random_system_with_root(2, 4, 12, "chebyshev")
    for method in ("cayley", "sylvester"):  # warm the construction plans
        condition_at_root(sys_, root, method)
    counts = {}

    def count(mod, name):
        real = getattr(mod, name)

        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(mod, name, counted)

    count(basis_mod, "_value_derivative_table")
    count(multipoly, "_value_derivative_table")
    for mod in (basis_mod, cayley_mod, sylvester_mod, multipoly, matpoly):
        count(mod, "basis_eval_all")
    for mod in (cayley_mod, sylvester_mod, multipoly, matpoly, rootfinder):
        if hasattr(mod, "_stacked"):
            count(mod, "_stacked")
    for method in ("cayley", "sylvester"):
        for hidden in (None, 0):
            counts.clear()
            condition_at_root(sys_, root, method, hidden)
            assert counts == {"_value_derivative_table": 1, "_stacked": 1}
            counts.clear()
            report = solve_system(sys_, method,
                                  SolveOptions(hidden_index=hidden))
            assert all(r.recovery == "ratio" for r in report.roots)
            assert counts["_stacked"] == 1
    counts.clear()
    x, iters, ok = newton_polish(sys_, root + 1e-3)
    assert ok and iters > 1
    assert counts["_stacked"] == 1


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
        assert row["recovery"] in ("ratio", "subsolve")


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


def test_records_holding_arrays_compare_by_identity(mono):
    # a field-wise == of records that hold arrays would ask numpy for the
    # truth value of an array and raise; the records compare and hash by
    # identity, so two solves of one system give unequal reports
    sys_ = circle_line(mono)
    p = sys_.polys[0]
    hv = hide_variable(sys_)
    rep, again = solve_system(sys_), solve_system(sys_)
    cay, syl = cayley_resultant(hv), sylvester_resultant(hv)
    records = [p, MultiPoly(p.basis, 2, p.coeffs.copy()), sys_, hv, rep,
               again, rep.roots[0], again.roots[0], cay, syl,
               cay.matrix_poly, condition_at_root(sys_, rep.roots[0].x)]
    for a in records:
        assert a == a
        assert [a == b for b in records].count(True) == 1
    assert len(set(records)) == len(records)
    assert report_fields(rep) == report_fields(again)

"""The plan caches: what each holds, that it is read-only and bounded,
and how often a warm solve reads it."""

import dataclasses

import numpy as np
import pytest

from resultant_lab import cayley, matpoly
from resultant_lab.basis import (PLAN_CACHE_SIZE, DegreeGradedBasis, Domain,
                                 basis_eval_all)
from resultant_lab.rootfinder import (condition_at_root,
                                      random_system_with_root, solve_system)
from conftest import PLAN_CACHES, dense_gamma_basis, plan_args


def direct(name, args):
    """What the plan of the cache name holds for args, computed afresh
    with the same nesting."""
    basis = args[0]
    domain = basis.domain

    def inverse(x):
        return np.linalg.inv(basis_eval_all(basis, len(x) - 1, x).T).T

    if name == "cayley":
        _, ext, taus = args
        s_sets, t_sets = cayley._axis_point_sets(domain, taus)
        grid = [domain.nodes(len(ext) * max(max(ext) - 1, 1) + 1),
                *s_sets, *t_sets]
        extents = (ext[-1], *ext[:-1], *ext[:-1])
        return (s_sets, t_sets,
                [basis_eval_all(basis, e - 1, x)
                 for e, x in zip(extents, grid)],
                [inverse(x) for x in grid])
    if name == "sylvester":
        _, n, ext = args
        kept, hidden = domain.nodes(n), domain.nodes(ext[-1])
        return (basis_eval_all(basis, n - 1, kept).T,
                [basis_eval_all(basis, e - 1, x)
                 for e, x in zip(ext, (kept, hidden))],
                [inverse(kept), inverse(hidden)])
    _, K, N, dtype = args
    return ([(mu, *matpoly._pencil_table(basis, K, mu, dtype))
             for mu in matpoly._shifts(domain)],
            np.random.default_rng(20240811).standard_normal(N))


def leaves(x):
    """The arrays and scalars of a nested plan, in order."""
    if isinstance(x, (tuple, list)):
        return [leaf for item in x for leaf in leaves(item)]
    return [x]


def bits(x):
    return [(np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes())
            for a in leaves(x)]


@pytest.mark.parametrize("name", list(PLAN_CACHES))
def test_plan_cache(name):
    plan = PLAN_CACHES[name]
    for basis in (DegreeGradedBasis.legendre(),
                  DegreeGradedBasis.monomial(Domain.disc(0.2 + 0.1j, 1.5)),
                  dense_gamma_basis(Domain.interval(-1.0, 2.0))):
        args = plan_args(name, basis)
        plan.cache_clear()
        got = plan(*args)
        # the operators are the direct computation, bit for bit
        assert bits(got) == bits(direct(name, args))
        # every array is read-only, and a warm lookup returns the same
        # object
        arrays = [a for a in leaves(got) if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[-1][0] = 1.0
        assert plan(*args) is got
    # bounded at PLAN_CACHE_SIZE, least recently used first out
    assert plan.cache_info().maxsize == PLAN_CACHE_SIZE
    for i in range(PLAN_CACHE_SIZE + 10):
        basis = DegreeGradedBasis.monomial(Domain.interval(-1.0, 1.0 + i))
        plan(*plan_args(name, basis))
    assert plan.cache_info().currsize == PLAN_CACHE_SIZE


def plan_counts():
    return {name: plan.cache_info()[:2]
            for name, plan in PLAN_CACHES.items()}


@pytest.mark.parametrize("d, method", [(3, "cayley"), (2, "cayley"),
                                       (2, "sylvester")])
def test_warm_solve_reads_each_plan_without_misses(d, method):
    # a warm solve looks its construction plan up once, and the pencil's
    # plan once in polyeig and once in eigvecs; a warm
    # condition_at_root reads its construction plan alone
    sys_, root = random_system_with_root(d, 3, [5, d], "chebyshev")
    for op, hits in ((lambda: solve_system(sys_, method), 2),
                     (lambda: condition_at_root(sys_, root, method), 0)):
        op()
        before = plan_counts()
        op()
        after = plan_counts()
        delta = {name: (after[name][0] - before[name][0],
                        after[name][1] - before[name][1])
                 for name in PLAN_CACHES}
        want = {"cayley": (0, 0), "sylvester": (0, 0), "matpoly": (hits, 0)}
        want[method] = (1, 0)
        assert delta == want


def test_a_cached_plan_key_cannot_change():
    # a plan is keyed by its basis, domain included; were a basis or its
    # domain assignable, moving the domain of a basis whose plan is
    # cached would read back the shifts of the old domain
    sys_, _ = random_system_with_root(2, 3, 4, "chebyshev")
    solve_system(sys_)
    basis = sys_.basis
    for obj, attr, value in ((basis, "domain", Domain.interval(0, 2)),
                             (basis, "name", "legendre"),
                             (basis, "_key", ()),
                             (basis.domain, "lo", 5.0),
                             (basis.domain, "center", 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, value)
    assert basis == DegreeGradedBasis.chebyshev()
    for domain, want in ((basis.domain, [-0.8, -0.618, 0.6931]),
                         (Domain.interval(0, 2), [0.2, 0.382, 1.6931])):
        args = plan_args("matpoly", DegreeGradedBasis.chebyshev(domain))
        shifts = matpoly._plan(*args)[0]
        assert [mu for mu, _, _ in shifts] == pytest.approx(want, abs=1e-15)

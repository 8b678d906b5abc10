"""Workload corpora, the timed operation and its output check.

Every op is one call to the library's public API on a system drawn with
the library's own generator (random_system_with_root), from a seed
derived from the run seed and the item index.  Items cycle round-robin
over a workload's kinds, so every run has the same mix.

Why each workload exists and why others are left out is written up in
README.md next to this file.
"""

import math
from dataclasses import dataclass

import numpy as np

import resultant_lab as rl


@dataclass(frozen=True)
class Kind:
    op: str           # "solve" (solve_system) or "cond" (condition_at_root)
    method: str       # "cayley" or "sylvester"
    d: int
    degree: int
    basis: str
    pencil: tuple     # expected (N, K) of the resultant, or None

    @property
    def label(self):
        return f"{self.op}/{self.method}/d{self.d}n{self.degree}/{self.basis}"


BASES = ("chebyshev", "legendre")

WORKLOADS = {
    # Pencil 162 = N 18 x K 9; polyeig (QZ plus refinement) dominates.
    "eig-bound": [Kind("solve", "cayley", 3, 3, b, (18, 9)) for b in BASES],
    # 50-dim pencils either way: Cayley N 5 x K 10, Sylvester N 10 x K 5.
    "small-solve": [Kind("solve", m, 2, 5, b, pencil)
                    for b in BASES
                    for m, pencil in (("cayley", (5, 10)),
                                      ("sylvester", (10, 5)))],
    # Resultant plus structured eigenvectors at the planted root; no QZ.
    "cond-probe": [Kind("cond", "cayley", d, n, b, None)
                   for d, n in ((3, 3), (2, 8)) for b in BASES],
}

# Distinct systems per run; runs longer than the corpus cycle through it.
CORPUS_SIZE = {"eig-bound": 128, "small-solve": 1024, "cond-probe": 1024}
WARMUP_SEED = 0

ROOT_TOL = 1e-8       # planted root found within ROOT_TOL * (1 + |root|)
RAYLEIGH_TOL = 1e-6   # |rayleigh - det J| <= RAYLEIGH_TOL * (1 + |det J|)
MAX_DIGITS = 16.0


@dataclass(frozen=True)
class Item:
    index: int
    seed: tuple
    kind: Kind
    system: object
    root: np.ndarray


def _item(kinds, seed, i):
    kind = kinds[i % len(kinds)]
    item_seed = (int(seed), i)
    system, root = rl.random_system_with_root(
        kind.d, kind.degree, list(item_seed), kind.basis)
    return Item(i, item_seed, kind, system, root)


def corpus(workload, seed):
    kinds = WORKLOADS[workload]
    return [_item(kinds, seed, i) for i in range(CORPUS_SIZE[workload])]


def warmup_items(workload):
    """One item of each kind, from WARMUP_SEED whatever the run seed, so
    the warm-up part of set-up time does not depend on the corpus."""
    kinds = WORKLOADS[workload]
    return [_item(kinds, WARMUP_SEED, i) for i in range(len(kinds))]


def run_op(item):
    """The timed call.  Goes through the package namespace, so a tracer
    that rebinds names there sees the top-level call too."""
    k = item.kind
    if k.op == "solve":
        return rl.solve_system(item.system, k.method)
    return rl.condition_at_root(item.system, item.root, k.method)


def _digits(err):
    if err == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(err)))


def check(item, out):
    """Check one op's output.

    Returns (problems, digits, fates): problems lists every failed check
    (empty when the op passed), digits is -log10 of the relative error,
    clamped at 16, and fates holds the report's eigenvalue ledger.
    """
    k = item.kind
    problems = []
    fates = {}
    if k.op == "cond":
        ray, jdet = complex(out.rayleigh), complex(out.jacobian_det)
        gap = abs(ray - jdet)
        if not gap <= RAYLEIGH_TOL * (1.0 + abs(jdet)):
            problems.append(f"|rayleigh - det J| = {gap:.3e}")
        rel = gap / abs(jdet) if jdet != 0 else float("inf")
        return problems, _digits(rel), fates
    n, kk = k.pencil
    if out.resultant_size != n:
        problems.append(f"resultant size {out.resultant_size} != {n}")
    if out.n_eigenvalues + out.n_infinite != n * kk:
        problems.append(f"finite {out.n_eigenvalues} + infinite "
                        f"{out.n_infinite} != N*K = {n * kk}")
    scale = float(np.max(np.abs(item.root)))
    errs = [float(np.max(np.abs(r.x - item.root))) for r in out.accepted]
    err = min(errs) if errs else float("inf")
    if not err <= ROOT_TOL * (1.0 + scale):
        problems.append(f"planted root missing (nearest accepted at "
                        f"{err:.3e})")
    accepted = len(out.accepted)
    fates = {
        "pencil_dim": out.n_eigenvalues + out.n_infinite,
        "n_infinite": out.n_infinite,
        "n_outside_domain": out.n_outside_domain,
        "n_recovery_failed": out.n_recovery_failed,
        "grid_fallbacks": sum(r.recovery == "grid" for r in out.roots),
        "newton_iters": sum(r.newton_iters for r in out.roots),
        "accept_ratio": (accepted / out.n_eigenvalues
                         if out.n_eigenvalues else 0.0),
    }
    return problems, _digits(err / scale), fates

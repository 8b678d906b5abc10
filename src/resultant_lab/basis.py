"""Degree-graded polynomial bases and Clenshaw-style evaluation.

A degree-graded basis is a family phi_0, phi_1, ... with deg phi_k = k
exactly, generated by the recurrence

    phi_0(x) = 1
    phi_{k+1}(x) = (alpha_k x + beta_k) phi_k(x)
                   + sum_{j=1}^{k} gamma_{k,j} phi_{j-1}(x),

where every alpha_k is nonzero.  Monomials, Chebyshev polynomials and
Legendre polynomials are built in; custom bases supply explicit
coefficient tables.  All built-in families have sup-norm 1 on [-1, 1].

Every recurrence in the package reads one cached table per basis, shared
by all instances of a built-in family (``DegreeGradedBasis.table``): the
alpha_k and beta_k as arrays and the nonzero gamma_{k,j} listed by row
and by column.  Three-term bases such
as Chebyshev and Legendre simply have one gamma entry per row, so the
same loop serves them and dense custom recurrences alike.

Differentiating the recurrence gives the derivatives alongside the
values (``basis_eval_deriv_all``):

    phi'_0(x) = 0
    phi'_{k+1}(x) = alpha_k phi_k(x) + (alpha_k x + beta_k) phi'_k(x)
                    + sum_{j=1}^{k} gamma_{k,j} phi'_{j-1}(x).

The operators at the construction nodes depend on the shape alone, so
each construction caches them in its plan (``cayley._plan``,
``sylvester._plan``; at most ``PLAN_CACHE_SIZE`` entries each).  Points
that change with every system call ``basis_eval_all`` directly.

Polynomials p(x) = sum_k a_k phi_k(x) are evaluated by running the
recurrence backwards (a generalized Clenshaw scheme) down to k = 0: the
last shift is b_0[p](x) = p(x) because phi_0 = 1.  The shifts
b_1[p](x), ... produced along the way are kept on the returned trace
because they also encode divided differences, derivatives and the left
eigenvector structure of resultant matrices built downstream.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "DegreeGradedBasis",
    "ClenshawTrace",
    "DegreeOverflowError",
    "NormalizationWarning",
    "basis_eval_all",
    "basis_eval_deriv_all",
    "clenshaw_eval",
    "clenshaw_shifts",
    "divided_difference",
    "derivative_eval",
    "basis_to_json",
    "basis_from_json",
]

_BUILTIN_NAMES = ("monomial", "chebyshev", "legendre")

# Entries held by each plan cache (cayley._plan, sylvester._plan and
# matpoly._plan); a fixed bound, not a setting.
PLAN_CACHE_SIZE = 256


class DegreeOverflowError(ValueError):
    """Recurrence tables are too short for the requested degree."""


class NormalizationWarning(UserWarning):
    """Basis functions deviate noticeably from unit sup norm on the domain."""


# ----------------------------------------------------------------------
# Evaluation region
# ----------------------------------------------------------------------

class Domain:
    """Region the basis lives on: a real interval or a complex disc.

    Both kinds have a center and a radius; an interval's are its
    midpoint and half-width, while equality, hashing, repr and JSON
    use its lo and hi.
    """

    __slots__ = ("kind", "lo", "hi", "center", "radius")

    def __init__(self, kind, lo=None, hi=None, center=None, radius=None):
        if kind == "interval":
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise ValueError("interval needs lo < hi")
            self.lo, self.hi = lo, hi
            self.center, self.radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
        elif kind == "disc":
            self.center, self.radius = complex(center), float(radius)
            if self.radius <= 0:
                raise ValueError("disc needs a positive radius")
            self.lo, self.hi = None, None
        else:
            raise ValueError("domain kind must be 'interval' or 'disc'")
        self.kind = kind

    @classmethod
    def interval(cls, lo, hi):
        return cls("interval", lo=lo, hi=hi)

    @classmethod
    def disc(cls, center, radius):
        return cls("disc", center=center, radius=radius)

    def contains(self, z, margin=0.0):
        """Whether each point of z lies in the region, inflated by
        margin: a bool array shaped like z."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "interval":
            return ((np.abs(z.imag) <= margin)
                    & (self.lo - margin <= z.real)
                    & (z.real <= self.hi + margin))
        return np.abs(z - self.center) <= self.radius + margin

    def nodes(self, m):
        """m distinct interpolation nodes.

        Chebyshev points of the second kind mapped to the interval, or
        equispaced points on the boundary circle for disc regions.
        """
        if m < 1:
            raise ValueError("need at least one node")
        if self.kind == "interval":
            if m == 1:
                return np.array([self.center])
            return self.center + self.radius * np.cos(
                np.arange(m) * np.pi / (m - 1))
        ang = 2.0j * np.pi * np.arange(m) / m
        return self.center + self.radius * np.exp(ang)

    def sample_grid(self, m):
        """Dense sample set used for sup-norm checks.

        For a disc the boundary circle suffices: |phi_k| attains its
        maximum over the closed disc on the boundary.
        """
        if self.kind == "interval":
            return np.linspace(self.lo, self.hi, m)
        return self.nodes(m)

    def __eq__(self, other):
        if not isinstance(other, Domain) or self.kind != other.kind:
            return NotImplemented if not isinstance(other, Domain) else False
        if self.kind == "interval":
            return self.lo == other.lo and self.hi == other.hi
        return self.center == other.center and self.radius == other.radius

    def __hash__(self):
        if self.kind == "interval":
            return hash((self.kind, self.lo, self.hi))
        return hash((self.kind, self.center, self.radius))

    def __repr__(self):
        if self.kind == "interval":
            return f"Domain.interval({self.lo}, {self.hi})"
        return f"Domain.disc({self.center}, {self.radius})"

    def to_json(self):
        if self.kind == "interval":
            return {"interval": [self.lo, self.hi]}
        return {"disc": {"center": [self.center.real, self.center.imag],
                         "radius": self.radius}}

    @classmethod
    def from_json(cls, obj):
        if "interval" in obj:
            lo, hi = obj["interval"]
            return cls.interval(lo, hi)
        if "disc" in obj:
            c = obj["disc"]["center"]
            return cls.disc(complex(c[0], c[1]), obj["disc"]["radius"])
        raise ValueError("domain JSON needs an 'interval' or 'disc' key")


# ----------------------------------------------------------------------
# Basis definition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _RecurrenceTable:
    """Recurrence coefficients for rows k = 0..len(alpha) - 1.

    rows[k] lists (j, gamma_{k,j}) for the nonzero entries, j ascending;
    cols[j] lists (k, gamma_{k,j}), k ascending.  cols has one slot more
    than rows so that cols[k + 1] exists for every row k.  dtype is that
    of the recurrence values: float64, or complex128 when a custom alpha,
    beta or gamma is complex.
    """

    alpha: np.ndarray
    beta: np.ndarray
    rows: tuple
    cols: tuple
    dtype: np.dtype


def _build_table(basis, kmax):
    rows = tuple(tuple((j, g) for j in range(1, k + 1)
                       if (g := basis.gamma(k, j)) != 0)
                 for k in range(kmax + 1))
    cols = [[] for _ in range(kmax + 2)]
    for k, row in enumerate(rows):
        for j, g in row:
            cols[j].append((k, g))
    alpha = np.array([basis.alpha(k) for k in range(kmax + 1)])
    beta = np.array([basis.beta(k) for k in range(kmax + 1)])
    alpha.flags.writeable = beta.flags.writeable = False  # tables are shared
    gammas = np.array([g for row in rows for _, g in row])
    dtype = np.result_type(float, alpha, beta, gammas)
    return _RecurrenceTable(alpha=alpha, beta=beta, rows=rows,
                            cols=tuple(tuple(c) for c in cols), dtype=dtype)


@functools.lru_cache(maxsize=None)
def _builtin_table(name, length):
    """Rows 0..length-1 of a built-in family.  Its coefficients depend on
    the name alone, so one table serves every instance (a per-instance
    table costs a few KB per system in large corpora)."""
    return _build_table(DegreeGradedBasis(name), length - 1)


class DegreeGradedBasis:
    """Recurrence data (alpha_k, beta_k, gamma_{k,j}) plus a domain.

    Built-in names generate their coefficients on demand and support
    any degree.  A custom basis carries finite tables: ``alpha`` and
    ``beta`` as flat sequences, ``gamma`` as ragged rows where row k-1
    holds (gamma_{k,1}, ..., gamma_{k,k}).  Tables long enough for
    degree m must have len(alpha) >= m, len(beta) >= m and m-1 gamma
    rows.
    """

    def __init__(self, name, alpha=None, beta=None, gamma=None, domain=None,
                 check_normalization=True):
        if domain is None:
            domain = Domain.interval(-1.0, 1.0)
        self.name = str(name)
        self.domain = domain
        self._table = None
        self._hash = None
        if self.name in _BUILTIN_NAMES:
            if alpha is not None or beta is not None or gamma is not None:
                raise ValueError("built-in bases take no recurrence tables")
            self._alpha = self._beta = None
            self._gamma = None
        elif self.name == "custom":
            if alpha is None or beta is None or gamma is None:
                raise ValueError("custom basis needs alpha, beta and gamma")
            self._alpha = np.atleast_1d(np.asarray(alpha))
            self._beta = np.atleast_1d(np.asarray(beta))
            if np.any(self._alpha == 0):
                raise ValueError("alpha entries must be nonzero")
            if len(self._beta) != len(self._alpha):
                raise ValueError("alpha and beta must have equal length")
            rows = []
            for k, row in enumerate(gamma, start=1):
                row = np.atleast_1d(np.asarray(row))
                if len(row) != k:
                    raise ValueError(f"gamma row {k} must hold {k} entries")
                rows.append(row)
            self._gamma = tuple(rows)
            if len(self._gamma) < len(self._alpha) - 1:
                raise ValueError("gamma needs len(alpha) - 1 rows")
            if check_normalization:
                self._warn_if_unnormalized()
        else:
            raise ValueError(f"unknown basis name {name!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, domain=None):
        return cls("monomial", domain=domain)

    @classmethod
    def chebyshev(cls, domain=None):
        return cls("chebyshev", domain=domain)

    @classmethod
    def legendre(cls, domain=None):
        return cls("legendre", domain=domain)

    @classmethod
    def custom(cls, alpha, beta, gamma, domain=None, check_normalization=True):
        return cls("custom", alpha=alpha, beta=beta, gamma=gamma,
                   domain=domain, check_normalization=check_normalization)

    # -- recurrence coefficients ---------------------------------------

    def alpha(self, k):
        if self.name == "monomial":
            return 1.0
        if self.name == "chebyshev":
            return 1.0 if k == 0 else 2.0
        if self.name == "legendre":
            return (2.0 * k + 1.0) / (k + 1.0)
        if k >= len(self._alpha):
            raise DegreeOverflowError(
                f"alpha table ends at k={len(self._alpha) - 1}, need k={k}")
        return self._alpha[k]

    def beta(self, k):
        if self.name in _BUILTIN_NAMES:
            return 0.0
        if k >= len(self._beta):
            raise DegreeOverflowError(
                f"beta table ends at k={len(self._beta) - 1}, need k={k}")
        return self._beta[k]

    def gamma(self, k, j):
        """gamma_{k,j} for 1 <= j <= k."""
        if not 1 <= j <= k:
            raise ValueError("gamma is defined for 1 <= j <= k")
        if self.name == "monomial":
            return 0.0
        if self.name == "chebyshev":
            return -1.0 if j == k else 0.0
        if self.name == "legendre":
            return -k / (k + 1.0) if j == k else 0.0
        if k > len(self._gamma):
            raise DegreeOverflowError(
                f"gamma table ends at row {len(self._gamma)}, need row {k}")
        return self._gamma[k - 1][j - 1]

    def table(self, kmax):
        """Recurrence table holding at least rows k = 0..kmax.

        Built from the scalar alpha, beta and gamma methods on first use
        and cached.  Built-in tables come in power-of-two lengths shared
        by every instance of the family, so the returned arrays may be
        longer than kmax + 1.
        """
        self.require_degree(kmax + 1)
        tab = self._table
        if tab is None or len(tab.alpha) <= kmax:
            if self.name == "custom":
                tab = _build_table(self, self.max_degree() - 1)
            else:
                tab = _builtin_table(self.name,
                                     max(16, 1 << int(kmax).bit_length()))
            self._table = tab
        return tab

    # -- capabilities ---------------------------------------------------

    def max_degree(self):
        """Largest representable degree, or None when unlimited."""
        if self.name in _BUILTIN_NAMES:
            return None
        return min(len(self._alpha), len(self._gamma) + 1)

    def supports_degree(self, m):
        mx = self.max_degree()
        return mx is None or m <= mx

    def require_degree(self, m):
        if not self.supports_degree(m):
            raise DegreeOverflowError(
                f"basis tables support degree {self.max_degree()}, need {m}")

    # -- misc -----------------------------------------------------------

    def _warn_if_unnormalized(self):
        kmax = min(self.max_degree(), 30)
        grid = self.domain.sample_grid(1537)
        sup = np.max(np.abs(basis_eval_all(self, kmax, grid)), axis=-1)
        worst = float(np.max(np.abs(sup - 1.0)))
        if worst > 1e-6:
            warnings.warn(
                "custom basis deviates from unit sup norm on its domain "
                f"(worst deviation {worst:.3e}); conditioning estimates "
                "assume normalized bases", NormalizationWarning, stacklevel=3)

    def __eq__(self, other):
        if not isinstance(other, DegreeGradedBasis):
            return NotImplemented
        if self.name != other.name or self.domain != other.domain:
            return False
        if self.name != "custom":
            return True
        return (np.array_equal(self._alpha, other._alpha)
                and np.array_equal(self._beta, other._beta)
                and len(self._gamma) == len(other._gamma)
                and all(np.array_equal(a, b)
                        for a, b in zip(self._gamma, other._gamma)))

    def __hash__(self):
        # Python complex values hash equal exactly when they compare
        # equal, whatever the table dtype; the tables never change, so
        # the hash is computed once
        if self._hash is None:
            values = ()
            if self.name == "custom":
                values = tuple(complex(v) for row in
                               (self._alpha, self._beta, *self._gamma)
                               for v in row)
            self._hash = hash((self.name, self.domain, values))
        return self._hash

    def __repr__(self):
        return f"DegreeGradedBasis({self.name!r}, domain={self.domain!r})"


# ----------------------------------------------------------------------
# Forward evaluation
# ----------------------------------------------------------------------

def basis_eval_all(basis, kmax, x):
    """Evaluate phi_0(x), ..., phi_kmax(x) by the forward recurrence.

    Parameters
    ----------
    basis : DegreeGradedBasis
    kmax : int
        Highest degree to produce.
    x : scalar or ndarray
        Evaluation points.

    Returns
    -------
    ndarray with shape (kmax + 1,) + shape(x), in the result type of x
    and of the recurrence table: float64 for real points and a real
    recurrence, complex128 otherwise.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    tab = basis.table(kmax - 1)
    x = np.asarray(x)
    out = np.empty((kmax + 1,) + x.shape,
                   dtype=np.result_type(x, tab.dtype))
    out[0] = 1.0
    for k in range(kmax):
        acc = (tab.alpha[k] * x + tab.beta[k]) * out[k]
        for j, g in tab.rows[k]:
            acc = acc + g * out[j - 1]
        out[k + 1] = acc
    return out


def basis_eval_deriv_all(basis, kmax, x):
    """Values and first derivatives of phi_0, ..., phi_kmax at x.

    Runs the forward recurrence and its derivative side by side,
    vectorised over the points x.

    Returns
    -------
    (vals, ders), each an ndarray with shape (kmax + 1,) + shape(x) in
    the dtype of basis_eval_all, which vals equals.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    tab = basis.table(kmax - 1)
    # Python floats: scaling a small array by a NumPy scalar costs more
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


# ----------------------------------------------------------------------
# Backward (Clenshaw) evaluation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClenshawTrace:
    """Backward-recurrence record: shifts b_{n+1}[p](x), ..., b_1[p](x)
    in that order, plus the value p(x) = b_0[p](x).  clenshaw_shifts
    returns the shifts in ascending order."""

    shifts: np.ndarray
    value: complex


def _shift_table(basis, coeffs, x):
    """Backward shifts for coefficient array of shape (n+1, ...).

    Returns b with shape (n+2, ...) where b[k] = b_k[p](x) for
    k = 0..n+1, from b_{n+1} = 0, b_n = a_n and
    b_k = a_k + (alpha_k x + beta_k) b_{k+1} + sum_{j>k} gamma_{j,k+1} b_{j+1}.
    Since phi_0 = 1 the last step gives b_0 = p(x).  The scalar x
    broadcasts over any trailing coefficient axes, which lets
    matrix-valued coefficient stacks share this code path.  b is in the
    result type of coeffs, x and the recurrence table.
    """
    n = coeffs.shape[0] - 1
    tab = basis.table(n - 1)
    b = np.zeros((n + 2,) + coeffs.shape[1:],
                 dtype=np.result_type(coeffs, x, tab.dtype))
    b[n] = coeffs[n]
    for k in range(n - 1, -1, -1):
        t = coeffs[k] + (tab.alpha[k] * x + tab.beta[k]) * b[k + 1]
        for j, g in tab.cols[k + 1]:
            if j >= n:
                break
            t = t + g * b[j + 1]
        b[k] = t
    return b


def clenshaw_shifts(basis, coeffs, x):
    """Ascending shift array b_1[p](x), ..., b_{n+1}[p](x).

    coeffs may carry trailing axes (e.g. matrix coefficients); x must be
    scalar.  Real coefficients at a real x give real shifts.  Exposed
    for resultant eigenvector construction.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] == 0:
        raise ValueError("empty coefficient list")
    return _shift_table(basis, coeffs, x)[1:]


def clenshaw_eval(basis, coeffs, x):
    """Evaluate p(x) = sum_k a_k phi_k(x) by the backward recurrence.

    Parameters
    ----------
    basis : DegreeGradedBasis
    coeffs : sequence
        Coefficients a_0, ..., a_n; must be nonempty.
    x : complex

    Returns
    -------
    ClenshawTrace
        Shifts b_{n+1}, ..., b_1 and the value p(x) = b_0.

    Notes
    -----
    In the monomial basis the recurrence collapses to Horner's rule and
    the shifts equal Horner's intermediate values exactly.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.shape[0] == 0:
        raise ValueError("coeffs must be a nonempty one-dimensional sequence")
    b = _shift_table(basis, coeffs, complex(x))
    return ClenshawTrace(shifts=b[1:][::-1].copy(), value=complex(b[0]))


def divided_difference(basis, coeffs, x, y):
    """(p(x) - p(y)) / (x - y), evaluated without cancellation.

    Uses the shift identity
        sum_{i=0}^{n-1} alpha_i b_{i+1}[p](y) phi_i(x),
    which continues analytically to p'(x) at x = y.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.shape[0] == 0:
        raise ValueError("coeffs must be a nonempty one-dimensional sequence")
    n = coeffs.shape[0] - 1
    if n == 0:
        return 0.0j
    b = _shift_table(basis, coeffs, complex(y))
    phis = basis_eval_all(basis, n - 1, complex(x))
    al = basis.table(n - 1).alpha[:n]
    return complex(np.sum(al * b[1:n + 1] * phis))


def derivative_eval(basis, coeffs, x):
    """p'(x) via the shifts of the backward recurrence at y = x."""
    return divided_difference(basis, coeffs, x, x)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def basis_to_json(basis):
    obj = {"name": basis.name, "domain": basis.domain.to_json()}
    if basis.name == "custom":
        obj["alpha"] = [_num_to_json(a) for a in basis._alpha]
        obj["beta"] = [_num_to_json(b) for b in basis._beta]
        obj["gamma"] = [[_num_to_json(g) for g in row]
                        for row in basis._gamma]
    return obj


def basis_from_json(obj):
    if isinstance(obj, str):
        obj = {"name": obj}
    name = obj.get("name")
    if name is None:
        raise ValueError("basis JSON needs a 'name' field")
    domain = None
    if "domain" in obj:
        domain = Domain.from_json(obj["domain"])
    if name in _BUILTIN_NAMES:
        return DegreeGradedBasis(name, domain=domain)
    if name == "custom":
        alpha = [_num_from_json(a) for a in obj["alpha"]]
        beta = [_num_from_json(b) for b in obj["beta"]]
        gamma = [[_num_from_json(g) for g in row] for row in obj["gamma"]]
        return DegreeGradedBasis("custom", alpha=alpha, beta=beta,
                                 gamma=gamma, domain=domain)
    raise ValueError(f"unknown basis name {name!r}")


def _num_to_json(v):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return [v.real, v.imag]


def _num_from_json(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return float(v)

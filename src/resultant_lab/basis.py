"""Degree-graded polynomial bases and Clenshaw-style evaluation.

A degree-graded basis is a family phi_0, phi_1, ... with deg phi_k = k
exactly, generated by the recurrence

    phi_0(x) = 1
    phi_{k+1}(x) = (alpha_k x + beta_k) phi_k(x)
                   + sum_{j=1}^{k} gamma_{k,j} phi_{j-1}(x),

where every alpha_k is nonzero.  Monomials, Chebyshev polynomials and
Legendre polynomials are built in; custom bases supply explicit
coefficient tables.  All built-in families have sup-norm 1 on [-1, 1].

The table is the one source of a basis's coefficients: the accessors
alpha, beta and gamma and every recurrence in the package read it
(``DegreeGradedBasis.table``), the alpha_k and beta_k as arrays and the
nonzero gamma_{k,j} listed by row and by column.  One builder makes it
from custom tables and from the closed forms of the built-in families
(alpha_k = 1 for monomials; alpha_0 = 1, alpha_k = 2, gamma_{k,k} = -1
for Chebyshev; alpha_k = (2k+1)/(k+1), gamma_{k,k} = -k/(k+1) for
Legendre; beta_k = 0 for all three), whose tables every instance of the
family shares.  Three-term bases simply have one gamma entry per row, so
the same loop serves them and dense custom recurrences alike.

A domain and a basis are values: no attribute of either can be assigned,
and a basis compares and hashes by one key made at construction, so the
plan caches keyed by a basis never read a plan built for other data.

Differentiating the recurrence gives the derivatives alongside the
values:

    phi'_0(x) = 0
    phi'_{k+1}(x) = alpha_k phi_k(x) + (alpha_k x + beta_k) phi'_k(x)
                    + sum_{j=1}^{k} gamma_{k,j} phi'_{j-1}(x).

Both run as one fused recurrence on a (kmax + 1, 2, ...) table
(``_value_derivative_table``), the package's only forward recurrence:
``basis_eval_all`` returns its value half, while the Jacobian kernel and
the conditioning probe read the table as it is.  A single point runs as a
one-element array, so its values are bitwise those of the same point in
any array.

The operators at the construction nodes and the basis values at the
eigensolver's shifts depend on the shape alone, so each construction and
the eigensolver cache them in a plan (``cayley._plan``,
``sylvester._plan``, ``matpoly._plan``; at most ``PLAN_CACHE_SIZE``
entries each).  Points that change with every system call
``basis_eval_all`` directly.

Polynomials p(x) = sum_k a_k phi_k(x) are evaluated by running the
recurrence backwards (a generalized Clenshaw scheme) down to k = 0: the
last shift is b_0[p](x) = p(x) because phi_0 = 1.  The shifts
b_1[p](x), ... produced along the way are kept on the returned trace
because they also encode divided differences, derivatives and the left
eigenvector structure of resultant matrices built downstream.  Taken
for every phi_i at once (``clenshaw_shifts`` on the identity), they
give the scalars of shift and invert: alpha_m b_{m+1}[phi_i](mu) is
coefficient m of the divided difference of phi_i at mu.
"""

import functools
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Domain",
    "DegreeGradedBasis",
    "ClenshawTrace",
    "DegreeOverflowError",
    "NormalizationWarning",
    "basis_eval_all",
    "clenshaw_eval",
    "clenshaw_shifts",
    "divided_difference",
    "derivative_eval",
    "basis_to_json",
    "basis_from_json",
]

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

@dataclass(frozen=True)
class Domain:
    """Region the basis lives on: a real interval or a complex disc.

    Both kinds have a center and a radius; an interval's are its
    midpoint and half-width, derived from lo and hi, and a disc has no
    lo and hi.  A domain is a value: its fields cannot be assigned.
    """

    kind: str
    lo: float = None
    hi: float = None
    center: complex = None
    radius: float = None

    def __post_init__(self):
        if self.kind == "interval":
            lo, hi = float(self.lo), float(self.hi)
            if not (lo < hi and np.isfinite(hi - lo)):
                raise ValueError(f"interval [{lo}, {hi}] needs finite lo < hi")
            values = (lo, hi, 0.5 * (lo + hi), 0.5 * (hi - lo))
        elif self.kind == "disc":
            center, radius = complex(self.center), float(self.radius)
            if not (np.isfinite(center) and 0 < radius < np.inf):
                raise ValueError("disc needs a finite center and radius > 0")
            values = (None, None, center, radius)
        else:
            raise ValueError("domain kind must be 'interval' or 'disc'")
        for name, v in zip(("lo", "hi", "center", "radius"), values):
            object.__setattr__(self, name, v)

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

    def to_json(self):
        if self.kind == "interval":
            return {"interval": [self.lo, self.hi]}
        return {"disc": {"center": [self.center.real, self.center.imag],
                         "radius": self.radius}}

    @classmethod
    def from_json(cls, obj):
        """Raises ValueError naming the field that is missing or not made
        of real numbers (JSON's true and false are not, nor is an integer
        too large for a float)."""
        if isinstance(obj, dict) and "interval" in obj:
            if not _are_reals(iv := obj["interval"], 2):
                raise ValueError(
                    f"interval must be [lo, hi], got {_brief(iv)}")
            return cls.interval(*iv)
        if not (isinstance(obj, dict) and isinstance(obj.get("disc"), dict)):
            raise ValueError("domain JSON needs an 'interval' or a 'disc' "
                             f"object, got {obj!r}")
        c, r = obj["disc"].get("center"), obj["disc"].get("radius")
        if not _are_reals(c, 2):
            raise ValueError(f"disc center must be [re, im], got {_brief(c)}")
        if not _are_reals([r], 1):
            raise ValueError(f"disc radius must be a number, got {_brief(r)}")
        return cls.disc(complex(*c), r)


def _is_number(v):
    """Whether v is a JSON number that a float holds: a float, or an int
    that is not a bool (JSON's true and false) and not too large for a
    float (1 followed by 400 zeros is)."""
    if isinstance(v, float):
        return True
    return (isinstance(v, int) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _brief(v):
    """repr(v) for an error message, with an integer too large for a
    float, alone or in a list, cut to its first digits and its length."""
    if isinstance(v, list):
        return "[" + ", ".join(map(_brief, v)) + "]"
    if isinstance(v, int) and not isinstance(v, bool) and not _is_number(v):
        digits = str(abs(v))
        return (f"{'-' if v < 0 else ''}{digits[:6]}... ({len(digits)} "
                "digits, too large for a float)")
    return repr(v)


def _are_reals(v, n):
    """Whether v is a list of n real numbers, by _is_number."""
    return (isinstance(v, (list, tuple)) and len(v) == n
            and all(map(_is_number, v)))


def _reject_non_finite(c, what="coefficients"):
    """Raise ValueError naming up to five indices of the NaN or infinite
    entries of the array c, called what in the message; finite c costs
    one reduction."""
    if np.isfinite(c).all():
        return
    bad = np.argwhere(~np.isfinite(c))
    where = ", ".join(str(tuple(int(i) for i in idx)) for idx in bad[:5])
    more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
    raise ValueError(f"non-finite {what} at index {where}{more}")


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


def _build_table(alpha, beta, rows):
    """The table of the arrays alpha and beta, which it makes read-only,
    and of rows[k], the nonzero (j, gamma_{k,j}) of row k."""
    rows = tuple(map(tuple, rows))
    cols = [[] for _ in range(len(alpha) + 1)]
    for k, row in enumerate(rows):
        for j, g in row:
            cols[j].append((k, g))
    alpha.flags.writeable = beta.flags.writeable = False  # tables are shared
    gammas = np.array([g for row in rows for _, g in row])
    dtype = np.result_type(float, alpha, beta, gammas)
    return _RecurrenceTable(alpha=alpha, beta=beta, rows=rows,
                            cols=tuple(map(tuple, cols)), dtype=dtype)


# alpha_k and gamma_{k,k} of each built-in family as functions of k;
# beta_k and every other gamma_{k,j} are zero
_BUILTIN_FORMS = {
    "monomial": (lambda k: 1.0, None),
    "chebyshev": (lambda k: 1.0 if k == 0 else 2.0, lambda k: -1.0),
    "legendre": (lambda k: (2.0 * k + 1.0) / (k + 1.0),
                 lambda k: -k / (k + 1.0)),
}


@functools.lru_cache(maxsize=None)
def _builtin_table(name, length):
    """Rows 0..length-1 of a built-in family.  Its coefficients depend on
    the name alone, so one table serves every instance (a per-instance
    table costs a few KB per system in large corpora)."""
    alpha_k, gamma_kk = _BUILTIN_FORMS[name]
    rows = [((k, gamma_kk(k)),) if gamma_kk and k else ()
            for k in range(length)]
    return _build_table(np.array([alpha_k(k) for k in range(length)]),
                        np.zeros(length), rows)


@dataclass(frozen=True, init=False)
class DegreeGradedBasis:
    """Recurrence data (alpha_k, beta_k, gamma_{k,j}) plus a domain.

    Built-in names take their coefficients from closed forms and support
    any degree.  A custom basis carries finite tables of finite numbers:
    ``alpha`` and ``beta`` as flat sequences, ``gamma`` as ragged rows
    where row k-1 holds (gamma_{k,1}, ..., gamma_{k,k}).  Tables long
    enough for degree m must have len(alpha) >= m, len(beta) >= m and
    m-1 gamma rows; gamma rows past len(alpha) - 1 are never read and
    are dropped.

    A basis is a value: its attributes cannot be assigned, and equality
    and the hash read one key made at construction.
    """

    name: str = field(compare=False)
    domain: Domain = field(compare=False)
    # the name, the domain's fields and the custom tables as Python
    # complex values, so equal tables of any dtype give equal keys; flat,
    # so that a plan key hashes in one pass
    _key: tuple = field(repr=False)
    _table: _RecurrenceTable = field(compare=False, repr=False)

    def __init__(self, name, alpha=None, beta=None, gamma=None, domain=None):
        name = str(name)
        if domain is None:
            domain = Domain.interval(-1.0, 1.0)
        tables = ()
        if name in _BUILTIN_FORMS:
            if alpha is not None or beta is not None or gamma is not None:
                raise ValueError("built-in bases take no recurrence tables")
            table = _builtin_table(name, 16)
        elif name == "custom":
            if alpha is None or beta is None or gamma is None:
                raise ValueError("custom basis needs alpha, beta and gamma")
            alpha, beta = (np.atleast_1d(np.array(t)) for t in (alpha, beta))
            if len(alpha) == 0 or np.any(alpha == 0):
                raise ValueError("alpha needs one or more nonzero entries")
            _reject_non_finite(alpha, "alpha")
            _reject_non_finite(beta, "beta")
            if len(beta) != len(alpha):
                raise ValueError("alpha and beta must have equal length")
            rows = []
            for k, row in enumerate(gamma, start=1):
                row = np.atleast_1d(np.asarray(row))
                if len(row) != k:
                    raise ValueError(f"gamma row {k} must hold {k} entries")
                _reject_non_finite(row, f"gamma row {k}")
                rows.append(row)
            if len(rows) < len(alpha) - 1:
                raise ValueError("gamma needs len(alpha) - 1 rows")
            gamma = rows[:len(alpha) - 1]
            table = _build_table(alpha, beta, [()] + [
                [(j, g) for j, g in enumerate(row, start=1) if g != 0]
                for row in gamma])
            tables = tuple(tuple(map(complex, t))
                           for t in (alpha, beta, *gamma))
        else:
            raise ValueError(f"unknown basis name {name!r}")
        key = (name, domain.kind, domain.lo, domain.hi, domain.center,
               domain.radius, tables)
        for attr, value in (("name", name), ("domain", domain),
                            ("_key", key), ("_table", table)):
            object.__setattr__(self, attr, value)
        if name == "custom":
            sup = np.max(np.abs(basis_eval_all(
                self, min(len(alpha), 30), domain.sample_grid(1537))), axis=-1)
            worst = float(np.max(np.abs(sup - 1.0)))
            if worst > 1e-6:
                warnings.warn(
                    "custom basis deviates from unit sup norm on its domain "
                    f"(worst deviation {worst:.3e}); conditioning estimates "
                    "assume normalized bases", NormalizationWarning,
                    stacklevel=2)

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
    def custom(cls, alpha, beta, gamma, domain=None):
        return cls("custom", alpha=alpha, beta=beta, gamma=gamma,
                   domain=domain)

    # -- recurrence coefficients, read from the table -------------------

    def alpha(self, k):
        return self.table(k).alpha[k]

    def beta(self, k):
        return self.table(k).beta[k]

    def gamma(self, k, j):
        """gamma_{k,j} for 1 <= j <= k."""
        if not 1 <= j <= k:
            raise ValueError("gamma is defined for 1 <= j <= k")
        return dict(self.table(k).rows[k]).get(j, 0.0)

    def table(self, kmax):
        """Recurrence table holding at least rows k = 0..kmax.

        A custom basis's table is built at construction and holds all of
        its rows.  Built-in tables come in power-of-two lengths shared
        by every instance of the family, so the returned arrays may be
        longer than kmax + 1.
        """
        self.require_degree(kmax + 1)
        if len(self._table.alpha) <= kmax:
            object.__setattr__(self, "_table", _builtin_table(
                self.name, 1 << int(kmax).bit_length()))
        return self._table

    # -- capabilities ---------------------------------------------------

    def max_degree(self):
        """Largest representable degree, or None when unlimited."""
        return len(self._table.alpha) if self.name == "custom" else None

    def require_degree(self, m):
        """Raise DegreeOverflowError unless the tables reach degree m."""
        mx = self.max_degree()
        if mx is not None and m > mx:
            raise DegreeOverflowError(
                f"basis tables support degree {mx}, need {m}")


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
    C-contiguous ndarray with shape (kmax + 1,) + shape(x), in the
    result type of x and of the recurrence table: float64 for real
    points and a real recurrence, complex128 otherwise.  It is the value
    half of _value_derivative_table, the package's one forward
    recurrence, so a single point, a one-element array and each point of
    an array give the same bits.
    """
    return np.ascontiguousarray(_value_derivative_table(basis, kmax, x)[:, 0])


def _value_derivative_table(basis, kmax, x):
    """phi_k(x) and phi'_k(x) for k = 0..kmax from one fused recurrence.

    Returns an array of shape (kmax + 1, 2) + shape(x), in the result
    type of x and of the recurrence table: slot [k, 0] holds phi_k(x)
    and [k, 1] phi'_k(x).  The recurrence runs on the flat view of each
    row k, the values of every point followed by their derivatives, so
    each step is three one-dimensional array operations plus two per
    gamma entry, however many points there are; the factors
    alpha_k x + beta_k of every k come from one broadcast.  Every entry
    is formed by the same operations, in the same order, as in separate
    value and derivative recurrences over an array of points, so the
    table matches them bit for bit.  A single point runs as a
    one-element array, in numpy's array loops rather than its scalar
    arithmetic, so its entries round as the same point's in any array.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    tab = basis.table(kmax - 1)
    x = np.asarray(x)
    out = np.empty((kmax + 1, 2) + x.shape,
                   dtype=np.result_type(x, tab.dtype))
    n = x.size
    rows = out.reshape(kmax + 1, 2 * n)
    rows[0, :n] = 1.0
    rows[0, n:] = 0.0
    lin = tab.alpha[:kmax, None] * x.reshape(1, n) + tab.beta[:kmax, None]
    lin = np.concatenate([lin, lin], axis=1)
    # Python floats: scaling a small array by a NumPy scalar costs more
    al = tab.alpha[:kmax].tolist()
    for k in range(kmax):
        row, nxt = rows[k], rows[k + 1]
        np.multiply(lin[k], row, out=nxt)
        ders = nxt[n:]
        ders += al[k] * row[:n]
        for j, g in tab.rows[k]:
            nxt += g * rows[j - 1]
    return out


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
    Since phi_0 = 1 the last step gives b_0 = p(x).  x broadcasts over
    the trailing coefficient axes: a scalar serves matrix-valued stacks,
    and one point per coefficient column evaluates each at its own.  b
    is in the result type of coeffs, x and the recurrence table.
    """
    n = coeffs.shape[0] - 1
    tab = basis.table(n - 1)
    x = np.asarray(x)
    b = np.zeros((n + 2,) + coeffs.shape[1:],
                 dtype=np.result_type(coeffs, x, tab.dtype))
    b[n] = coeffs[n]
    # the factors alpha_k x + beta_k of every k from one broadcast
    shape = (n,) + (1,) * x.ndim
    lin = tab.alpha[:n].reshape(shape) * x + tab.beta[:n].reshape(shape)
    for k in range(n - 1, -1, -1):
        b[k] = coeffs[k] + lin[k] * b[k + 1]
        for j, g in tab.cols[k + 1]:
            if j >= n:
                break
            b[k] += g * b[j + 1]
    return b


def clenshaw_shifts(basis, coeffs, x):
    """Ascending shift array b_1[p](x), ..., b_{n+1}[p](x).

    coeffs may carry trailing axes (e.g. matrix coefficients), against
    which x broadcasts (_shift_table).  Real coefficients at a real x
    give real shifts.  Exposed for resultant eigenvector construction.
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
        n = basis.max_degree()
        obj["alpha"] = [_num_to_json(basis.alpha(k)) for k in range(n)]
        obj["beta"] = [_num_to_json(basis.beta(k)) for k in range(n)]
        obj["gamma"] = [[_num_to_json(basis.gamma(k, j))
                         for j in range(1, k + 1)] for k in range(1, n)]
    return obj


def basis_from_json(obj):
    if isinstance(obj, str):
        obj = {"name": obj}
    elif not isinstance(obj, dict):
        raise ValueError(f"basis must be a name or an object, got {obj!r}")
    name = obj.get("name")
    if name is None:
        raise ValueError("basis JSON needs a 'name' field")
    domain = None
    if "domain" in obj:
        domain = Domain.from_json(obj["domain"])
    if name != "custom":
        return DegreeGradedBasis(name, domain=domain)
    gamma = obj.get("gamma")
    if not isinstance(gamma, list):
        raise ValueError(f"gamma must be a list of rows, got {gamma!r}")
    return DegreeGradedBasis(
        "custom", alpha=_row_from_json(obj.get("alpha"), "alpha"),
        beta=_row_from_json(obj.get("beta"), "beta"),
        gamma=[_row_from_json(row, f"gamma[{k}]")
               for k, row in enumerate(gamma)], domain=domain)


def _num_to_json(v):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return [v.real, v.imag]


def _row_from_json(row, what):
    """A JSON list of numbers, complex ones written [re, im]; raises
    ValueError naming what and the first entry that is neither."""
    if not isinstance(row, list):
        raise ValueError(f"{what} must be a list of numbers, got {row!r}")
    for i, v in enumerate(row):
        if not (_is_number(v) or _are_reals(v, 2)):
            raise ValueError(
                f"{what}[{i}] must be a number or [re, im], got {_brief(v)}")
    return [float(v) if _is_number(v) else complex(*v) for v in row]

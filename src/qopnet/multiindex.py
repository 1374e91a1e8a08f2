"""Multi-index machinery for coefficient-decay models.

A bound function assigns to every d-dimensional multi-index nu a real
exponent b(nu), modelling coefficient decay |c_nu| <= exp(-b(nu)).  This
module selects the m indices with the smallest exponents (the quasi-optimal
set), estimates the normalized volume of the sublevel sets {b <= tau}, and
brackets the coefficient mass sum(exp(-b)) left outside a selection.

Bound kinds:

``isotropic``
    b(nu) = |nu|_1, the unweighted total degree.
``taylor``
    b(nu) = sum_i nu_i*log(rho_i), anisotropic geometric decay.
``legendre``
    b(nu) = sum_i [nu_i*log(rho_i) - log(2*nu_i + 1)], geometric decay
    discounted by the algebraic prefactor of orthonormal Legendre
    coefficient estimates.  A variant prefactor |2*nu_i - 1| sits behind
    ``literal_prefactor=True``.

Every kind is separable, b(nu) = sum_i g_i(nu_i) - log_c, and grows
linearly: c_low*|nu| - s_low <= b(nu) <= c_high*|nu| + s_high for explicit
constants, which is what makes tail remainders computable.

One lattice walk serves every consumer.  count_sublevel counts and
iter_sublevel lists the window {b <= tau}, coordinate by coordinate against
per-coordinate suffix minima, and both keep back for the later coordinates
the least they can add.  The legendre kind with rho < 3 dips below zero
near the origin, so that reserve can be negative; it is what keeps the
walk from dropping indices.  Selection widens tau until the window holds
m indices and sorts the window by (b, lex), so every selection is a prefix
of any larger one and of the synthetic target sorted the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qopnet.errors import (
    ConfigurationError,
    DimensionMismatchError,
    ResourceCapError,
)

_KINDS = ("isotropic", "taylor", "legendre")

_TABLE_SEED = 64  # initial per-coordinate table length


@dataclass(frozen=True)
class GrowthEnvelope:
    """Linear envelope c_low*|nu| - shift_low <= b(nu) <= c_high*|nu| + shift_high."""

    c_low: float
    shift_low: float
    c_high: float
    shift_high: float

    def __post_init__(self):
        if not (0.0 < self.c_low <= self.c_high):
            raise ConfigurationError(
                f"envelope slopes must satisfy 0 < c_low <= c_high, "
                f"got ({self.c_low}, {self.c_high})"
            )


class BoundFunction:
    """Exponent model b(nu) for coefficient decay |c_nu| <= exp(-b(nu)).

    Instances are immutable after construction apart from internal lazily
    grown lookup tables, which are idempotent caches and safe to share
    across threads.

    Parameters
    ----------
    kind : str
        One of "isotropic", "taylor", "legendre".
    rho : sequence of float, optional
        Per-coordinate decay rates, all > 1.  Required for "taylor" and
        "legendre"; for "isotropic" pass ``dim`` instead.
    dim : int, optional
        Ambient dimension; inferred from rho when omitted.
    log_c : float
        Log-prefactor: the modelled bound is exp(log_c)*exp(-raw(nu)), so
        ``value`` returns raw(nu) - log_c.
    literal_prefactor : bool
        Legendre only: use the |2*nu - 1| prefactor variant instead of the
        default (2*nu + 1).
    """

    def __init__(self, kind, rho=None, dim=None, log_c=0.0,
                 literal_prefactor=False):
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown bound kind {kind!r}")
        if kind in ("taylor", "legendre"):
            if rho is None or len(rho) == 0:
                raise ConfigurationError(f"kind {kind!r} requires rho")
            rho = tuple(float(r) for r in rho)
            if any(r <= 1.0 for r in rho):
                raise ConfigurationError(f"all decay rates must exceed 1, got {rho}")
            if any(not math.isfinite(r) for r in rho):
                raise ConfigurationError(f"decay rates must be finite, got {rho}")
            dim = len(rho)
        else:  # isotropic
            if dim is None:
                dim = len(rho) if rho is not None else None
            if dim is None or dim < 1:
                raise ConfigurationError("isotropic kind requires dim >= 1")
            rho = (math.e,) * dim  # b = |nu|_1 is taylor decay at rate e
        self.kind = kind
        self.rho = rho
        self.dim = int(dim)
        self.log_c = float(log_c)
        self.literal_prefactor = bool(literal_prefactor and kind == "legendre")
        self._tables = {}   # coord -> np.ndarray of g values
        self._sufmin = {}   # coord -> nondecreasing suffix minima
        self._nstar = {}    # coord -> onset of the monotone tail
        self._envelope = None

    # -- per-coordinate term -------------------------------------------------

    def _log_rho(self, i):
        return math.log(self.rho[i])

    def _coord_values(self, i, n_hi):
        """g_i(n) for n = 0..n_hi-1 as a float array."""
        n = np.arange(n_hi, dtype=float)
        if self.kind in ("isotropic", "taylor"):
            return n * self._log_rho(i)
        # legendre prefactor discount
        if self.literal_prefactor:
            pref = np.log(np.maximum(np.abs(2.0 * n - 1.0), 1.0))
        else:
            pref = np.log(2.0 * n + 1.0)
        return n * self._log_rho(i) - pref

    def _increase_point(self, i):
        """First n from which g_i is nondecreasing forever.

        For n >= 1 the increment g(n+1)-g(n) = log(rho) - log(pref ratio)
        is nondecreasing in n and tends to log(rho) > 0 for both prefactor
        variants, so once the last increment in a window is nonnegative the
        window already contains the final dip.
        """
        if self.kind in ("isotropic", "taylor"):
            return 0
        cached = self._nstar.get(i)
        if cached is not None:
            return cached
        horizon = 256
        while True:
            g = self._coord_values(i, horizon + 1)
            inc = np.diff(g)
            if inc[-1] >= 0.0:
                bad = np.nonzero(inc < 0.0)[0]
                n_star = int(bad[-1] + 1) if bad.size else 0
                self._nstar[i] = n_star
                return n_star
            if horizon > 1 << 24:
                raise ConfigurationError(
                    f"could not locate a monotone tail for coordinate {i}; "
                    f"decay rate {self.rho[i]} is too close to 1")
            horizon *= 2

    def _ensure_table(self, i, n_hi):
        """Grow coordinate tables to cover n < n_hi; returns (g, sufmin)."""
        tab = self._tables.get(i)
        if tab is not None and len(tab) >= n_hi:
            return tab, self._sufmin[i]
        n_star = self._increase_point(i)
        length = max(n_hi, n_star + 2, _TABLE_SEED)
        g = self._coord_values(i, length)
        suf = np.minimum.accumulate(g[::-1])[::-1].copy()
        # beyond the table g is nondecreasing from n_star on, so suffix
        # minima computed inside the window are exact for every entry
        self._tables[i] = g
        self._sufmin[i] = suf
        return g, suf

    def coord_term(self, i, n):
        """The separable per-coordinate contribution g_i(n)."""
        g, _ = self._ensure_table(i, n + 1)
        return float(g[n])

    # -- evaluation ----------------------------------------------------------

    def _check_index(self, nu):
        nu = tuple(int(v) for v in nu)
        if len(nu) != self.dim:
            raise DimensionMismatchError(
                f"index has {len(nu)} coordinates, bound expects {self.dim}")
        if any(v < 0 for v in nu):
            raise ConfigurationError(f"multi-index entries must be >= 0, got {nu}")
        return nu

    def value(self, nu):
        """Exponent b(nu); the modelled coefficient bound is exp(-b(nu))."""
        nu = self._check_index(nu)
        raw = 0.0
        for i, v in enumerate(nu):
            raw += self.coord_term(i, v)
        return raw - self.log_c

    __call__ = value

    # -- growth envelope -----------------------------------------------------

    def envelope(self):
        """Linear growth envelope, used by tail remainders and selection."""
        if self._envelope is not None:
            return self._envelope
        if self.kind in ("isotropic", "taylor"):
            logs = [self._log_rho(i) for i in range(self.dim)]
            env = GrowthEnvelope(min(logs), self.log_c, max(logs), -self.log_c)
        else:
            # per coordinate take slope log(rho)/2 and pay the worst-case
            # prefactor discount as a constant shift
            c_parts, s_parts = [], []
            for i in range(self.dim):
                c_i = 0.5 * self._log_rho(i)
                horizon = int(math.ceil(4.0 / self._log_rho(i))) + 4
                g = self._coord_values(i, horizon + 1)
                n = np.arange(horizon + 1, dtype=float)
                s_i = float(np.max(c_i * n - g))
                c_parts.append(c_i)
                s_parts.append(max(s_i, 0.0))
            env = GrowthEnvelope(min(c_parts), sum(s_parts) + self.log_c,
                                 max(self._log_rho(i) for i in range(self.dim)),
                                 -self.log_c)
        self._envelope = env
        return env

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        doc = {"kind": self.kind, "rho": list(self.rho), "logC": self.log_c}
        if self.literal_prefactor:
            doc["literal_prefactor"] = True
        return doc

    def __repr__(self):
        flag = ", literal_prefactor=True" if self.literal_prefactor else ""
        return f"BoundFunction({self.kind}, rho={self.rho}{flag})"


def isotropic_bound(dim):
    """b(nu) = |nu|_1."""
    return BoundFunction("isotropic", dim=dim)


def taylor_bound(rho, log_c=0.0):
    """b(nu) = sum_i nu_i*log(rho_i) - log_c."""
    return BoundFunction("taylor", rho=rho, log_c=log_c)


def legendre_bound(rho, log_c=0.0, literal_prefactor=False):
    """b(nu) = sum_i [nu_i*log(rho_i) - log(prefactor(nu_i))] - log_c."""
    return BoundFunction("legendre", rho=rho, log_c=log_c,
                         literal_prefactor=literal_prefactor)


# -- quasi-optimal selection ---------------------------------------------


@dataclass(frozen=True)
class QuasiOptimalIndexSet:
    """The m multi-indices with the smallest exponents, sorted by (b, lex).

    ``threshold`` is the largest exponent inside the set; every index left
    out has an exponent >= threshold (with lexicographic tie-breaking at
    equality).
    """

    indices: tuple
    threshold: float
    bound: BoundFunction | None = None

    @property
    def m(self):
        return len(self.indices)

    @property
    def dim(self):
        return len(self.indices[0]) if self.indices else 0

    def to_json_dict(self):
        return {"M": self.m, "J": self.threshold,
                "indices": [list(nu) for nu in self.indices]}


def enumerate_quasi_optimal(bound, m):
    """Select the m indices with the smallest b, ties broken lexicographically.

    The window {b <= tau} opens at the least exponent, the sum of the
    coordinate minima, and widens until it counts m indices; each step
    stretches its width by 2^(1/d), which about doubles the count.  The
    window is then walked with a tiny margin, so that no index whose summed
    b rounds past tau is missed, sorted by (b, lex) and cut at m.  The
    threshold is b of the m-th index.
    """
    if m < 1:
        raise ConfigurationError(f"selection size must be >= 1, got {m}")
    low = sum(_coordinate_minima(bound)) - bound.log_c
    width = bound.envelope().c_low
    stretch = 2.0 ** (1.0 / bound.dim)
    while count_sublevel(bound, low + width) < m:
        width *= stretch
    tau = low + width
    tau += 1e-9 * (1.0 + abs(tau) + abs(bound.log_c))
    chosen = sorted((b, nu) for nu, b in iter_sublevel(bound, tau))[:m]
    return QuasiOptimalIndexSet(tuple(nu for _, nu in chosen), chosen[-1][0],
                                bound)


# -- sublevel-set counting and volume -------------------------------------


def _coordinate_minima(bound):
    """min over n of g_i(n) for every coordinate i."""
    return [float(bound._ensure_table(i, 1)[1][0]) for i in range(bound.dim)]


def _coordinate_windows(bound, tau):
    """Per-coordinate tables (g, sufmin, limit) covering {b <= tau}.

    limit is one past the largest n that can appear in any counted index,
    judged by suffix minima against the budget left by the other
    coordinates at their own minima.  reserve[j] is the least the
    coordinates after j can add: a branch at coordinate j is cut as soon as
    g_j(n) exceeds the remaining budget less that reserve.
    """
    d = bound.dim
    tau_eff = tau + bound.log_c  # tables hold raw per-coordinate terms
    mins = _coordinate_minima(bound)
    total_min = sum(mins)
    tabs = []
    for i in range(d):
        budget = tau_eff - (total_min - mins[i])
        n_hi = _TABLE_SEED
        while True:
            g, suf = bound._ensure_table(i, n_hi)
            if suf[n_hi - 1] > budget:
                break
            if n_hi > 200_000_000:
                raise ResourceCapError(
                    f"coordinate {i} alone exceeds the lattice cap at tau={tau}")
            n_hi *= 2
        limit = int(np.searchsorted(suf[:n_hi], budget, side="right"))
        tabs.append((g[:n_hi], suf[:n_hi], limit))
    reserve = [0.0] * d
    for j in range(d - 2, -1, -1):
        reserve[j] = reserve[j + 1] + mins[j + 1]
    return tabs, tau_eff, reserve


def count_sublevel(bound, tau, cap=200_000_000):
    """Exact number of lattice points with b(nu) <= tau.

    Counts exactly the indices iter_sublevel yields: both cut a branch by
    the same comparison against the same reserve.
    """
    if not math.isfinite(tau):
        raise ConfigurationError(f"sublevel threshold must be finite, got {tau}")
    d = bound.dim
    tabs, tau_eff, reserve = _coordinate_windows(bound, tau)
    if d == 1:
        g, _, limit = tabs[0]
        n = int(np.count_nonzero(g[:limit] <= tau_eff))
        if n > cap:
            raise ResourceCapError(f"lattice count exceeded cap {cap}")
        return n
    last_sorted = np.sort(tabs[d - 1][0][:tabs[d - 1][2]])
    running = [0]

    def rec_with_rest(j, rem):
        g, suf, limit = tabs[j]
        room = rem - reserve[j]
        cut = int(np.searchsorted(suf[:limit], room, side="right"))
        if j == d - 2:
            head = g[:cut]
            rems = rem - head[head <= room]
            got = int(np.searchsorted(last_sorted, rems, side="right").sum())
            running[0] += got
            if running[0] > cap:
                raise ResourceCapError(f"lattice count exceeded cap {cap}")
            return got
        total = 0
        for n in range(cut):
            gn = g[n]
            if gn > room:
                continue
            total += rec_with_rest(j + 1, rem - gn)
        return total

    return rec_with_rest(0, tau_eff)


def iter_sublevel(bound, tau, cap=10_000_000):
    """Yield (nu, b(nu)) for every index with b <= tau, in lexicographic order.

    Each b is a Python float summed in the order BoundFunction.value sums,
    so it equals value(nu) bitwise.
    """
    if not math.isfinite(tau):
        raise ConfigurationError(f"sublevel threshold must be finite, got {tau}")
    d = bound.dim
    visited = [0]
    tabs, tau_eff, reserve = _coordinate_windows(bound, tau)
    tabs = [(g[:limit].tolist(), suf[:limit].tolist()) for g, suf, limit in tabs]
    prefix = [0] * d

    def walk(j, rem, spent):
        g, suf = tabs[j]
        room = rem - reserve[j]
        for n, gn in enumerate(g):
            if suf[n] > room:
                break
            if gn > room:
                continue
            prefix[j] = n
            if j == d - 1:
                visited[0] += 1
                if visited[0] > cap:
                    raise ResourceCapError(
                        f"sublevel enumeration exceeded cap {cap}")
                yield tuple(prefix), spent + gn - bound.log_c
            else:
                yield from walk(j + 1, rem - gn, spent + gn)

    yield from walk(0, tau_eff, 0.0)


@dataclass(frozen=True)
class VolumeEstimate:
    """Lattice estimate of the normalized sublevel-set volume.

    value approximates lim count{b <= tau}/tau^d.  With ``extrapolated``
    the first-order 1/tau error is cancelled by combining counts at tau/2
    and tau: 2*V(tau) - V(tau/2).
    """

    value: float
    tau: float
    lattice_count: int
    extrapolated: bool

    def to_json_dict(self):
        return {"value": self.value, "tau": self.tau,
                "lattice_count": self.lattice_count,
                "extrapolated": self.extrapolated}


def estimate_sublevel_volume(bound, tau=512.0, extrapolate=True, cap=200_000_000):
    """Estimate the normalized volume of {b <= tau} as tau grows.

    The count at the requested tau must stay under ``cap``; the helper
    halves tau until it does (raising only if even tiny thresholds bust
    the cap, which signals a degenerate bound).
    """
    if tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {tau}")
    d = bound.dim
    tau = float(tau)
    while True:
        try:
            n_fine = count_sublevel(bound, tau, cap=cap)
            break
        except ResourceCapError:
            if tau < 4.0:
                raise
            tau /= 2.0
    v_fine = n_fine / tau ** d
    if not extrapolate:
        return VolumeEstimate(v_fine, tau, n_fine, False)
    n_half = count_sublevel(bound, tau / 2.0, cap=cap)
    v_half = n_half / (tau / 2.0) ** d
    return VolumeEstimate(2.0 * v_fine - v_half, tau, n_fine, True)


# -- selection-threshold diagnostics ---------------------------------------


@dataclass(frozen=True)
class ThresholdInterval:
    """Predicted bracket for the selection threshold at a given size.

    In the large-m regime the threshold should land inside
    [(m/((1+epsilon)*volume))^(1/d), (2*m/volume)^(1/d)].  With volume <= 1
    or small m the prediction is asymptotic only, flagged by ``caveat``.
    """

    threshold: float
    lower: float
    upper: float
    inside: bool
    caveat: bool


def threshold_interval(index_set, volume, epsilon=0.5):
    """Diagnostic bracket for the selection threshold; never an assertion."""
    if volume <= 0:
        raise ConfigurationError(f"volume must be positive, got {volume}")
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    m = index_set.m
    d = index_set.dim
    lower = (m / ((1.0 + epsilon) * volume)) ** (1.0 / d)
    upper = (2.0 * m / volume) ** (1.0 / d)
    j = index_set.threshold
    return ThresholdInterval(j, lower, upper, lower <= j <= upper,
                             caveat=(volume <= 1.0))


# -- tail brackets ----------------------------------------------------------


@dataclass(frozen=True)
class TailBracket:
    """Bracket for sum of exp(-b) over all indices outside a selection.

    partial_sum covers the window {b <= cutoff} minus the selection,
    term by term; remainder_bound majorizes everything past the cutoff
    through the growth envelope.  upper = partial_sum + remainder_bound
    is a rigorous upper bound for the whole tail.
    """

    partial_sum: float
    remainder_bound: float
    cutoff: float

    @property
    def upper(self):
        return self.partial_sum + self.remainder_bound


def _remainder_past_cutoff(bound, cutoff):
    """Upper bound for sum of exp(-b) over {b > cutoff} via the envelope.

    Indices with b > cutoff have |nu|_1 > K = floor((cutoff - s_high)/c_high);
    shells of radius k hold comb(k+d-1, d-1) points, each worth at most
    exp(s_low - c_low*k).  The series is summed until its geometric cap
    is negligible, and that cap is added so the result stays an upper bound.
    """
    env = bound.envelope()
    d = bound.dim
    k0 = math.floor((cutoff - env.shift_high) / env.c_high) + 1
    k0 = max(k0, 0)
    scale = math.exp(min(env.shift_low, 700.0))
    total = 0.0
    k = k0
    while True:
        term = math.comb(k + d - 1, d - 1) * math.exp(-env.c_low * k)
        total += term
        ratio = math.exp(-env.c_low) * (k + d) / (k + 1)
        if ratio < 1.0 and term * ratio / (1.0 - ratio) <= total * 1e-17 + 1e-300:
            total += term * ratio / (1.0 - ratio)
            break
        k += 1
        if k - k0 > 10_000_000:
            raise ResourceCapError("tail remainder series failed to converge")
    return scale * total


def tail_sum(bound, index_set, cutoff, cap=10_000_000):
    """Bracket sum of exp(-b(nu)) over every index outside the selection.

    Requires cutoff strictly above the selection threshold so the window
    {b <= cutoff} contains the whole selection.
    """
    j = index_set.threshold
    if not cutoff > j:
        raise ConfigurationError(
            f"cutoff {cutoff} must exceed the selection threshold {j}")
    member = set(index_set.indices)
    terms = []
    inside = 0
    for nu, b in iter_sublevel(bound, cutoff, cap=cap):
        if nu in member:
            inside += 1
            continue
        terms.append(math.exp(-b))
    if inside != len(member):
        raise ConfigurationError(
            f"only {inside} of {len(member)} selected indices lie inside the "
            f"tail window; selection inconsistent with the supplied bound")
    partial = math.fsum(terms)
    remainder = _remainder_past_cutoff(bound, cutoff)
    return TailBracket(partial, remainder, float(cutoff))


def tail_constant(epsilon):
    """Universal prefactor (4e + 4*epsilon*e - 2)*e/(e - 1) of the tail bound."""
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    e = math.e
    return (4.0 * e + 4.0 * epsilon * e - 2.0) * e / (e - 1.0)


@dataclass(frozen=True)
class TailBoundReport:
    """Measured tail bracket against the predicted decay at size m.

    bound_rhs = C(epsilon)*m*exp(-(m/((1+epsilon)*volume))^(1/d)).  The
    prediction is asymptotic in m; ``caveat`` flags volume <= 1 or m below
    the configured onset, where a miss is reported but not an error.
    """

    m: int
    epsilon: float
    constant: float
    tail_upper: float
    bound_rhs: float
    ratio: float
    passed: bool
    caveat: bool

    def to_json_dict(self):
        return {"M": self.m, "epsilon": self.epsilon, "constant": self.constant,
                "tail_upper": self.tail_upper, "bound_rhs": self.bound_rhs,
                "ratio": self.ratio, "passed": self.passed, "caveat": self.caveat}


def tail_bound_report(bound, index_set, volume, epsilon=0.5, cutoff=None,
                      onset=1, cap=10_000_000):
    """Compare the rigorous tail bracket with its predicted decay."""
    if volume <= 0:
        raise ConfigurationError(f"volume must be positive, got {volume}")
    m = index_set.m
    d = index_set.dim
    if cutoff is None:
        cutoff = index_set.threshold + 60.0
    bracket = tail_sum(bound, index_set, cutoff, cap=cap)
    cu = tail_constant(epsilon)
    rhs = cu * m * math.exp(-((m / ((1.0 + epsilon) * volume)) ** (1.0 / d)))
    ratio = bracket.upper / rhs if rhs > 0 else math.inf
    return TailBoundReport(m, epsilon, cu, bracket.upper, rhs, ratio,
                           passed=(bracket.upper <= rhs),
                           caveat=(volume <= 1.0 or m < onset))

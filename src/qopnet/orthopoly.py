"""Polynomial families on [0,1] in monic factored form, and expansions.

Degree-n basis members are represented by their real roots: the value is
the monic product prod_j (y - r_j).  For the shifted-Legendre family the
roots are the Gauss-Legendre nodes mapped to [0,1]; for the monomial
family the root 0 repeats n times, giving y**n.  Everything downstream
(tensor products, expansions, synthesized networks) multiplies these
factors directly, so each factor and every partial product stays in
[-1,1] on the unit cube.

Coefficients live against the monic factored basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qopnet import ddfloat as dd
from qopnet.errors import (
    ConfigurationError,
    DimensionMismatchError,
    NonConvergenceError,
)
from qopnet.multiindex import QuasiOptimalIndexSet, iter_sublevel

_FAMILY_KINDS = ("shifted_legendre", "monomial")

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def _legendre_value_deriv(n, x):
    """P_n(x) and P_n'(x) on [-1,1] by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # interior points only; the denominator never vanishes there
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _legendre_roots_std(n, prev):
    """Roots of P_n on (-1,1), bracketed by the previous degree's roots.

    The roots of P_{n-1} extended by the interval endpoints interlace
    those of P_n, so each bracket holds exactly one simple root.  Newton
    from the midpoint, falling back to bisection whenever a step would
    leave the bracket.
    """
    brackets = np.concatenate(([-1.0], prev, [1.0]))
    roots = np.empty(n)
    for j in range(n):
        lo, hi = brackets[j], brackets[j + 1]
        x = 0.5 * (lo + hi)
        converged = False
        for _ in range(_NEWTON_MAX_ITER):
            f, df = _legendre_value_deriv(n, x)
            if f == 0.0:
                converged = True
                break
            step = f / df
            x_new = x - step
            if not lo < x_new < hi:
                # keep the bracket: the sign of f tells which half survives
                f_lo, _ = _legendre_value_deriv(n, lo)
                if (f > 0.0) == (f_lo > 0.0):
                    lo = x
                else:
                    hi = x
                x_new = 0.5 * (lo + hi)
            if abs(x_new - x) < _NEWTON_TOL:
                x = x_new
                converged = True
                break
            x = x_new
        if not converged:
            raise NonConvergenceError(
                f"root {j} of degree {n} did not converge in "
                f"{_NEWTON_MAX_ITER} iterations")
        roots[j] = x
    # enforce the exact +/- symmetry of the standard interval
    sym = 0.5 * (roots - roots[::-1])
    return sym


class PolynomialFamily:
    """Root tables and factored evaluation for one family kind.

    Immutable after construction except for the internal root cache,
    which only ever grows and is idempotent.
    """

    def __init__(self, kind, max_degree=64):
        if kind not in _FAMILY_KINDS:
            raise ConfigurationError(f"unknown family kind {kind!r}")
        if max_degree < 0:
            raise ConfigurationError(f"max_degree must be >= 0, got {max_degree}")
        self.kind = kind
        self.max_degree = int(max_degree)
        self._roots = {0: np.empty(0)}
        self._roots_std = {0: np.empty(0)}  # shifted_legendre working cache

    def roots(self, degree):
        """Sorted roots in [0,1] of the degree-n member; degree 0 is empty."""
        degree = int(degree)
        if not 0 <= degree <= self.max_degree:
            raise ConfigurationError(
                f"degree {degree} outside [0, {self.max_degree}]")
        cached = self._roots.get(degree)
        if cached is not None:
            return cached
        if self.kind == "monomial":
            r = np.zeros(degree)
        else:
            top = max(self._roots_std)
            for n in range(top + 1, degree + 1):
                if n == 1:
                    self._roots_std[1] = np.zeros(1)
                    continue
                self._roots_std[n] = _legendre_roots_std(n, self._roots_std[n - 1])
            r = 0.5 * (self._roots_std[degree] + 1.0)
        self._roots[degree] = r
        return r

    def eval_factored(self, degree, y):
        """Monic product of the degree-n factors, left to right in root order."""
        y = np.asarray(y, dtype=float)
        out = np.ones_like(y)
        for r in self.roots(degree):
            out = out * (y - r)
        return out if out.ndim else float(out)

    def eval_factored_dd(self, degree, y):
        """Factored product carried in double-double precision."""
        y = np.asarray(y, dtype=float)
        hi, lo = np.ones_like(y), np.zeros_like(y)
        for r in self.roots(degree):
            f_hi, f_lo = dd.two_sum(y, np.full_like(y, -r))
            hi, lo = dd.mul_dd(hi, lo, f_hi, f_lo)
        return hi, lo

    def to_json_value(self):
        return self.kind

    def __repr__(self):
        return f"PolynomialFamily({self.kind}, max_degree={self.max_degree})"


def make_family(kind, max_degree=64):
    return PolynomialFamily(kind, max_degree)


def shifted_legendre(max_degree=64):
    return PolynomialFamily("shifted_legendre", max_degree)


def monomial(max_degree=64):
    return PolynomialFamily("monomial", max_degree)


# -- tensor products and expansions ----------------------------------------


def _as_points(y, d):
    pts = np.asarray(y, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != d:
            raise DimensionMismatchError(
                f"point has {pts.shape[0]} coordinates, expected {d}")
        pts = pts[None, :]
        return pts, True
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DimensionMismatchError(
            f"points must be (n, {d}), got shape {pts.shape}")
    return pts, False


def eval_tensor(family, nu, y):
    """prod_i eval_factored(nu_i, y_i) for a point or a batch of points."""
    nu = tuple(int(v) for v in nu)
    pts, single = _as_points(y, len(nu))
    out = np.ones(pts.shape[0])
    for i, n in enumerate(nu):
        if n:
            out = out * family.eval_factored(n, pts[:, i])
    return float(out[0]) if single else out


def eval_tensor_dd(family, nu, y):
    """Tensor-product evaluation carried in double-double precision."""
    nu = tuple(int(v) for v in nu)
    pts, single = _as_points(y, len(nu))
    hi = np.ones(pts.shape[0])
    lo = np.zeros(pts.shape[0])
    for i, n in enumerate(nu):
        if n:
            f_hi, f_lo = family.eval_factored_dd(n, pts[:, i])
            hi, lo = dd.mul_dd(hi, lo, f_hi, f_lo)
    if single:
        return float(hi[0]), float(lo[0])
    return hi, lo


@dataclass(frozen=True)
class QuasiOptimalExpansion:
    """A finite expansion sum_nu c_nu * (monic tensor product nu).

    Coefficients are stored aligned with index_set.indices; the evaluator
    accumulates in exactly that order, so results are deterministic.
    """

    index_set: QuasiOptimalIndexSet
    coeffs: tuple
    family: PolynomialFamily

    def __post_init__(self):
        if len(self.coeffs) != self.index_set.m:
            raise ConfigurationError(
                f"{len(self.coeffs)} coefficients for {self.index_set.m} indices")
        top = max((max(nu) for nu in self.index_set.indices), default=0)
        if top > self.family.max_degree:
            raise ConfigurationError(
                f"index degree {top} exceeds family cap {self.family.max_degree}")

    @property
    def dim(self):
        return self.index_set.dim

    @property
    def m(self):
        return self.index_set.m

    def coeff_map(self):
        return dict(zip(self.index_set.indices, self.coeffs))

    def evaluate(self, y):
        pts, single = _as_points(y, self.dim)
        out = np.zeros(pts.shape[0])
        for nu, c in zip(self.index_set.indices, self.coeffs):
            out = out + c * eval_tensor(self.family, nu, pts)
        return float(out[0]) if single else out

    __call__ = evaluate

    def evaluate_dd(self, y):
        """Double-double accumulation; the reference for sub-1e-16 errors."""
        pts, single = _as_points(y, self.dim)
        hi = np.zeros(pts.shape[0])
        lo = np.zeros(pts.shape[0])
        for nu, c in zip(self.index_set.indices, self.coeffs):
            t_hi, t_lo = eval_tensor_dd(self.family, nu, pts)
            t_hi, t_lo = dd.mul_f64(t_hi, t_lo, c)
            hi, lo = dd.add_dd(hi, lo, t_hi, t_lo)
        if single:
            return float(hi[0]), float(lo[0])
        return hi, lo

    def restrict(self, index_set):
        """Sub-expansion over a subset of the indices (others dropped)."""
        cmap = self.coeff_map()
        missing = [nu for nu in index_set.indices if nu not in cmap]
        if missing:
            raise ConfigurationError(
                f"restriction index {missing[0]} is not part of the expansion")
        coeffs = tuple(cmap[nu] for nu in index_set.indices)
        return QuasiOptimalExpansion(index_set, coeffs, self.family)


def synthetic_expansion(bound, family, cutoff, seed, cap=10_000_000):
    """Ground-truth expansion with |c_nu| = exp(-b(nu)) and seeded signs.

    The index set is the full sublevel window {b <= cutoff} sorted by
    (b, lex); signs come from a deterministic seeded generator, so equal
    (bound, cutoff, seed) always produce the identical expansion.  The
    quality of the ground truth is the caller's concern: the truncation
    mass beyond the cutoff is exactly what tail_sum brackets.
    """
    items = sorted(
        ((b, nu) for nu, b in iter_sublevel(bound, cutoff, cap=cap)),
        key=lambda t: (t[0], t[1]))
    if not items:
        raise ConfigurationError(
            f"no index satisfies b <= {cutoff}; raise the cutoff")
    indices = tuple(nu for _, nu in items)
    top = max(max(nu) for nu in indices)
    if top > family.max_degree:
        raise ConfigurationError(
            f"cutoff {cutoff} needs degree {top} > family cap {family.max_degree}")
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=len(indices)) * 2 - 1
    coeffs = tuple(float(s) * math.exp(-b) for s, (b, _) in zip(signs, items))
    index_set = QuasiOptimalIndexSet(indices, items[-1][0], bound)
    return QuasiOptimalExpansion(index_set, coeffs, family)

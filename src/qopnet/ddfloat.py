"""Error-free transforms and double-double arithmetic on numpy arrays.

A double-double value is an unevaluated pair (hi, lo) with hi = fl(hi+lo)
and |lo| <= ulp(hi)/2, giving roughly 106 bits of significand.  The
network error bounds at larger sizes sit far below 2^-52 relative to the
operands, so measurements run through these primitives instead of plain
float64.

All functions broadcast elementwise over arrays.  None of the expressions
may be contracted into FMAs; neither CPython nor numpy does so.
"""

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a, b):
    """s + err == a + b exactly, s = fl(a+b)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    """two_sum under the precondition |a| >= |b| (or a == 0)."""
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """p + err == a*b exactly, p = fl(a*b)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def add_dd(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    e = e + (xl + yl)
    return quick_two_sum(s, e)


def sub_dd(xh, xl, yh, yl):
    return add_dd(xh, xl, -yh, -yl)


def mul_f64(xh, xl, c):
    p, e = two_prod(xh, c)
    e = e + xl * c
    return quick_two_sum(p, e)


def mul_dd(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


def abs_dd(hi, lo):
    neg = (hi < 0.0) | ((hi == 0.0) & (lo < 0.0))
    sign = np.where(neg, -1.0, 1.0)
    return sign * hi, sign * lo


def relu_dd(hi, lo):
    """max(value, 0) decided on the full double-double value."""
    pos = (hi > 0.0) | ((hi == 0.0) & (lo > 0.0))
    return np.where(pos, hi, 0.0), np.where(pos, lo, 0.0)

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


def quick_two_sum(a, b, out=None):
    """two_sum under the precondition |a| >= |b| (or a == 0).

    out=(s, err), two arrays distinct from a and b, receives the result.
    """
    if out is None:
        s = a + b
        return s, b - (s - a)
    s, err = out
    np.add(a, b, out=s)
    np.subtract(s, a, out=err)
    np.subtract(b, err, out=err)
    return out


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


def add_dd(xh, xl, yh, yl, out=None, work=None):
    """(xh, xl) + (yh, yl).

    out=(hi, lo) receives the sum and may be (xh, xl) itself; work is three
    scratch arrays of the sum's shape, allocated when None.  Both forms run
    the same operations in the same order, so their bits agree.
    """
    if out is None:
        s, e = two_sum(xh, yh)
        e = e + (xl + yl)
        return quick_two_sum(s, e)
    s, t, e = work if work is not None else \
        [np.empty_like(out[0]) for _ in range(3)]
    np.add(xh, yh, out=s)  # two_sum(xh, yh), with t = bb
    np.subtract(s, xh, out=t)
    np.subtract(s, t, out=e)
    np.subtract(xh, e, out=e)
    np.subtract(yh, t, out=t)
    np.add(e, t, out=e)
    np.add(xl, yl, out=t)
    np.add(e, t, out=e)
    return quick_two_sum(s, e, out=out)


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


def relu_dd(hi, lo, out=None, where=True):
    """max(value, 0) decided on the full double-double value.

    where (broadcast against hi) limits the hinge to those entries; the
    others pass through.  out=(hi, lo) receives the result and may be the
    operands themselves.
    """
    keep = hi > 0.0
    keep |= (hi == 0.0) & (lo > 0.0)
    if where is not True:
        keep |= np.logical_not(where)
    if out is None:
        return np.where(keep, hi, 0.0), np.where(keep, lo, 0.0)
    np.logical_not(keep, out=keep)
    for src, dst in zip((hi, lo), out):
        if dst is not src:
            np.copyto(dst, src)
        np.copyto(dst, 0.0, where=keep)
    return out

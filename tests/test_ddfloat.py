"""Error-free transforms and double-double kernels against exact rationals."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qopnet import ddfloat as dd


def exact(hi, lo):
    return Fraction(float(hi)) + Fraction(float(lo))


def test_two_sum_is_error_free():
    rng = np.random.default_rng(0)
    a = rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200)
    b = rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200)
    s, e = dd.two_sum(a, b)
    for i in range(200):
        assert exact(s[i], e[i]) == Fraction(a[i]) + Fraction(b[i])


def test_two_prod_is_error_free():
    rng = np.random.default_rng(1)
    a = rng.normal(size=200)
    b = rng.normal(size=200)
    p, e = dd.two_prod(a, b)
    for i in range(200):
        assert exact(p[i], e[i]) == Fraction(a[i]) * Fraction(b[i])


def test_two_prod_splits_a_known_case():
    p, e = dd.two_prod(np.array(1.0 + 2.0 ** -27), np.array(1.0 + 2.0 ** -27))
    # (1+2^-27)^2 = 1 + 2^-26 + 2^-54, one bit beyond f64
    assert float(p) == 1.0 + 2.0 ** -26
    assert float(e) == 2.0 ** -54


def test_add_dd_tracks_tiny_residues():
    one = np.array(1.0)
    tiny = np.array(1e-17)
    h, l = dd.two_sum(one, tiny)
    h, l = dd.add_dd(h, l, -1.0, 0.0)
    assert float(h) == 1e-17 and float(l) == 0.0


def random_dd(rng, n):
    hi = rng.normal(size=n)
    lo = hi * rng.normal(size=n) * 2.0 ** -55
    # renormalize so (hi, lo) is a valid nonoverlapping pair
    return dd.quick_two_sum(hi, lo)


@pytest.mark.parametrize("op,pyop", [
    (dd.add_dd, lambda x, y: x + y),
    (dd.sub_dd, lambda x, y: x - y),
    (dd.mul_dd, lambda x, y: x * y),
])
def test_dd_ops_reach_quad_accuracy(op, pyop):
    rng = np.random.default_rng(2)
    xh, xl = random_dd(rng, 100)
    yh, yl = random_dd(rng, 100)
    zh, zl = op(xh, xl, yh, yl)
    for i in range(100):
        ref = pyop(exact(xh[i], xl[i]), exact(yh[i], yl[i]))
        err = abs(exact(zh[i], zl[i]) - ref)
        assert err <= abs(ref) * Fraction(2) ** -102


def test_mul_f64_scales_both_limbs():
    rng = np.random.default_rng(3)
    xh, xl = random_dd(rng, 50)
    zh, zl = dd.mul_f64(xh, xl, 3.0)
    for i in range(50):
        ref = exact(xh[i], xl[i]) * 3
        assert abs(exact(zh[i], zl[i]) - ref) <= abs(ref) * Fraction(2) ** -102


def test_abs_dd_flips_pairs_jointly():
    hi = np.array([1.5, -1.5, 0.0, 0.0, -0.0])
    lo = np.array([-1e-17, 1e-17, 1e-300, -1e-300, 0.0])
    ah, al = dd.abs_dd(hi, lo)
    np.testing.assert_array_equal(ah, [1.5, 1.5, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(al, [-1e-17, -1e-17, 1e-300, 1e-300, 0.0])


def test_relu_dd_sign_decision_uses_low_limb_on_ties():
    hi = np.array([2.0, -2.0, 0.0, 0.0, 0.0])
    lo = np.array([1e-17, 1e-17, 1e-300, -1e-300, 0.0])
    rh, rl = dd.relu_dd(hi, lo)
    np.testing.assert_array_equal(rh, [2.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(rl, [1e-17, 0.0, 1e-300, 0.0, 0.0])


def test_relu_dd_matches_float64_relu_on_clear_signs():
    rng = np.random.default_rng(4)
    hi = rng.normal(size=300)
    lo = np.zeros(300)
    rh, _ = dd.relu_dd(hi, lo)
    np.testing.assert_array_equal(rh, np.maximum(hi, 0.0))


def _bits(pair):
    return [np.asarray(a).tobytes() for a in pair]


def _signed_zero_pairs(rng, shape):
    hi, lo = random_dd(rng, np.prod(shape))
    hi, lo = hi.reshape(shape), lo.reshape(shape)
    hi.flat[:6] = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0]
    lo.flat[:6] = [-0.0, 0.0, 0.0, -0.0, -0.0, 0.0]
    return hi, lo


def test_add_dd_out_matches_out_of_place():
    rng = np.random.default_rng(5)
    xh, xl = _signed_zero_pairs(rng, (6, 40))
    yh, yl = _signed_zero_pairs(rng, (6, 40))
    yh[:, :6], yl[:, :6] = -yh[:, :6], -yl[:, :6]
    want = _bits(dd.add_dd(xh, xl, yh, yl))
    out = (np.empty_like(xh), np.empty_like(xl))
    assert _bits(dd.add_dd(xh, xl, yh, yl, out=out)) == want
    work = [np.empty_like(xh) for _ in range(3)]
    ah, al = xh.copy(), xl.copy()
    got = dd.add_dd(ah, al, yh, yl, out=(ah, al), work=work)
    assert got[0] is ah and got[1] is al
    assert _bits((ah, al)) == want
    # prefix views of larger buffers, as the layer pass uses them
    bh, bl = np.vstack([xh, xh]), np.vstack([xl, xl])
    dd.add_dd(bh[:6], bl[:6], yh, yl, out=(bh[:6], bl[:6]))
    assert _bits((bh[:6], bl[:6])) == want
    assert _bits((bh[6:], bl[6:])) == _bits((xh, xl))


def test_quick_two_sum_out_matches_out_of_place():
    rng = np.random.default_rng(6)
    a, b = _signed_zero_pairs(rng, (50,))
    out = (np.empty_like(a), np.empty_like(b))
    assert _bits(dd.quick_two_sum(a, b, out=out)) == \
        _bits(dd.quick_two_sum(a, b))


@pytest.mark.parametrize("masked", [False, True])
def test_relu_dd_out_matches_out_of_place(masked):
    rng = np.random.default_rng(7)
    hi, lo = _signed_zero_pairs(rng, (8, 30))
    hi[:, 6:9] = [0.0, -0.0, 0.0]
    lo[:, 6:9] = [1e-300, 1e-300, -1e-300]
    hi[0, 9:12] = [np.inf, -np.inf, np.nan]
    rows = np.array([True, False, True, True, False, False, True, False])
    want_hi, want_lo = hi.copy(), lo.copy()
    if masked:
        want_hi[rows], want_lo[rows] = dd.relu_dd(hi[rows], lo[rows])
        where = rows[:, None]
    else:
        want_hi, want_lo = dd.relu_dd(hi, lo)
        where = True
    want = _bits((want_hi, want_lo))
    assert _bits(dd.relu_dd(hi, lo, where=where)) == want
    out = (np.empty_like(hi), np.empty_like(lo))
    assert _bits(dd.relu_dd(hi, lo, out=out, where=where)) == want
    got = dd.relu_dd(hi, lo, out=(hi, lo), where=where)
    assert got[0] is hi and got[1] is lo
    assert _bits((hi, lo)) == want


def _fr(x):
    return Fraction(float(x))


# finite doubles well inside the range: sums cannot overflow
_SUMMANDS = st.floats(min_value=-2.0 ** 1000, max_value=2.0 ** 1000)
# zero or 2^-400 <= |x| <= 2^400: splits and products stay normal
_FACTORS = st.floats(min_value=-2.0 ** 400, max_value=2.0 ** 400).filter(
    lambda x: x == 0.0 or abs(x) >= 2.0 ** -400)


@settings(max_examples=300, deadline=None)
@given(_SUMMANDS, _SUMMANDS)
def test_two_sum_is_exact_property(a, b):
    s, e = dd.two_sum(np.float64(a), np.float64(b))
    assert float(s) == a + b
    assert _fr(s) + _fr(e) == Fraction(a) + Fraction(b)


@settings(max_examples=300, deadline=None)
@given(_SUMMANDS, _SUMMANDS)
def test_quick_two_sum_is_exact_property(a, b):
    assume(a == 0.0 or abs(a) >= abs(b))
    s, e = dd.quick_two_sum(np.float64(a), np.float64(b))
    assert float(s) == a + b
    assert _fr(s) + _fr(e) == Fraction(a) + Fraction(b)


@settings(max_examples=300, deadline=None)
@given(_FACTORS, _FACTORS)
def test_two_prod_is_exact_property(a, b):
    p, e = dd.two_prod(np.float64(a), np.float64(b))
    assert float(p) == a * b
    assert _fr(p) + _fr(e) == Fraction(a) * Fraction(b)

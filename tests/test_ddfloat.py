"""Error-free transforms and double-double kernels against exact rationals."""

from fractions import Fraction

import numpy as np
import pytest

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

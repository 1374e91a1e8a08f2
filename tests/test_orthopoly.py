"""Root finding, factored evaluation, and expansion handling."""

import math

import numpy as np
import pytest

from qopnet import multiindex as mi
from qopnet import orthopoly as op
from qopnet.errors import ConfigurationError


# Closed forms for the first few shifted Legendre root sets on [0, 1]:
# degree 1: 1/2; degree 2: (3 +- sqrt(3))/6; degree 3: 1/2, (1 +- sqrt(3/5))/2.
ROOTS_1 = (0.5,)
ROOTS_2 = ((3.0 - math.sqrt(3.0)) / 6.0, (3.0 + math.sqrt(3.0)) / 6.0)
ROOTS_3 = ((1.0 - math.sqrt(0.6)) / 2.0, 0.5, (1.0 + math.sqrt(0.6)) / 2.0)


@pytest.mark.parametrize("degree,expected", [
    (1, ROOTS_1), (2, ROOTS_2), (3, ROOTS_3),
])
def test_low_degree_roots_match_closed_forms(degree, expected):
    fam = op.shifted_legendre()
    np.testing.assert_allclose(fam.roots(degree), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 13, 21, 34, 55, 64])
def test_roots_match_gauss_nodes(degree):
    # independent oracle: Gauss-Legendre nodes on [-1,1] mapped by (x+1)/2
    fam = op.shifted_legendre()
    nodes, _ = np.polynomial.legendre.leggauss(degree)
    mapped = np.sort((nodes + 1.0) / 2.0)
    got = np.asarray(fam.roots(degree))
    assert np.max(np.abs(got - mapped)) <= 2.0 * np.spacing(1.0)


def test_roots_are_symmetric_about_half():
    # symmetry is exact before the affine map to [0,1]; after it, one ulp
    fam = op.shifted_legendre()
    for degree in (2, 7, 16, 33):
        r = np.asarray(fam.roots(degree))
        np.testing.assert_allclose(r, 1.0 - r[::-1], rtol=0,
                                   atol=np.spacing(1.0))


def test_factored_value_vanishes_at_roots():
    fam = op.shifted_legendre()
    for degree in (1, 4, 10, 30):
        r = np.asarray(fam.roots(degree))
        np.testing.assert_array_equal(fam.eval_factored(degree, r), 0.0)


def test_factored_value_bounded_by_one_on_unit_interval():
    # all roots lie in (0,1) so every |y - r| <= 1 on [0,1]
    fam = op.shifted_legendre()
    y = np.linspace(0.0, 1.0, 4097)
    for degree in (1, 2, 5, 12, 40, 64):
        assert np.max(np.abs(fam.eval_factored(degree, y))) <= 1.0


def test_factored_times_lead_matches_normalized_polynomial():
    # lead * prod(y - r) should equal sqrt(2n+1) P_n(2y - 1), with the
    # orthonormal leading coefficient lead = sqrt(2n+1) * C(2n, n)
    fam = op.shifted_legendre()
    y = np.linspace(0.0, 1.0, 513)
    for degree in (1, 2, 3, 6, 11):
        c = np.zeros(degree + 1)
        c[degree] = 1.0
        ref = math.sqrt(2 * degree + 1) * np.polynomial.legendre.legval(
            2.0 * y - 1.0, c)
        lead = math.sqrt(2 * degree + 1) * math.comb(2 * degree, degree)
        got = lead * fam.eval_factored(degree, y)
        np.testing.assert_allclose(got, ref, rtol=0, atol=5e-13)


def test_monomial_family_is_plain_powers():
    fam = op.monomial()
    y = np.linspace(-1.0, 1.0, 101)
    for degree in (0, 1, 2, 5):
        np.testing.assert_array_equal(fam.roots(degree), np.zeros(degree))
        # left-to-right repeated product, the declared evaluation order
        ref = np.ones_like(y)
        for _ in range(degree):
            ref = ref * y
        np.testing.assert_array_equal(fam.eval_factored(degree, y), ref)


def test_degree_cap_enforced():
    fam = op.shifted_legendre(max_degree=8)
    fam.roots(8)
    with pytest.raises(ConfigurationError):
        fam.roots(9)


def test_unknown_family_kind_rejected():
    with pytest.raises(ConfigurationError):
        op.make_family("chebyshev")


def test_factored_dd_agrees_with_float64():
    fam = op.shifted_legendre()
    y = np.linspace(0.0, 1.0, 257)
    for degree in (1, 5, 20):
        hi, lo = fam.eval_factored_dd(degree, y)
        f64 = fam.eval_factored(degree, y)
        np.testing.assert_allclose(hi, f64, rtol=1e-13, atol=1e-16)
        assert np.max(np.abs(lo)) <= np.max(np.spacing(np.abs(hi) + 1e-300))


def test_tensor_eval_is_product_of_factors():
    fam = op.shifted_legendre()
    rng = np.random.default_rng(3)
    y = rng.random((50, 3))
    nu = (2, 0, 3)
    expected = fam.eval_factored(2, y[:, 0]) * fam.eval_factored(3, y[:, 2])
    np.testing.assert_allclose(op.eval_tensor(fam, nu, y), expected,
                               rtol=1e-15, atol=0)


def test_tensor_eval_dimension_check():
    fam = op.shifted_legendre()
    with pytest.raises(Exception):
        op.eval_tensor(fam, (1, 2), np.zeros((4, 3)))


# -- expansions ---------------------------------------------------------------


def small_expansion(seed=7, m=6):
    b = mi.isotropic_bound(2)
    lam = mi.enumerate_quasi_optimal(b, m)
    fam = op.shifted_legendre()
    full = op.synthetic_expansion(b, fam, 12.0, seed=seed)
    return full.restrict(lam)


def test_synthetic_expansion_coefficients_sit_on_the_bound():
    b = mi.isotropic_bound(2)
    fam = op.shifted_legendre()
    u = op.synthetic_expansion(b, fam, 6.0, seed=0)
    for nu, c in zip(u.index_set.indices, u.coeffs):
        assert abs(c) == pytest.approx(math.exp(-b.value(nu)), rel=1e-15)


def test_synthetic_expansion_seed_reproducible():
    b = mi.isotropic_bound(2)
    fam = op.shifted_legendre()
    a = op.synthetic_expansion(b, fam, 6.0, seed=11)
    bb = op.synthetic_expansion(b, fam, 6.0, seed=11)
    assert a.coeffs == bb.coeffs
    assert op.synthetic_expansion(b, fam, 6.0, seed=12).coeffs != a.coeffs


def test_synthetic_expansion_respects_degree_cap():
    b = mi.isotropic_bound(1)
    with pytest.raises(ConfigurationError):
        op.synthetic_expansion(b, op.shifted_legendre(), 100.0, seed=0)


def test_expansion_evaluate_matches_direct_sum():
    u = small_expansion()
    rng = np.random.default_rng(5)
    y = rng.random((40, 2))
    direct = np.zeros(40)
    for nu, c in zip(u.index_set.indices, u.coeffs):
        direct += c * op.eval_tensor(u.family, nu, y)
    np.testing.assert_allclose(u.evaluate(y), direct, rtol=0, atol=1e-14)


def test_expansion_evaluate_dd_refines_float64():
    u = small_expansion()
    rng = np.random.default_rng(6)
    y = rng.random((30, 2))
    hi, lo = u.evaluate_dd(y)
    np.testing.assert_allclose(hi, u.evaluate(y), rtol=0, atol=1e-13)
    assert np.max(np.abs(lo)) < 1e-15


def test_restrict_to_subset():
    u = small_expansion(m=6)
    sub = mi.enumerate_quasi_optimal(mi.isotropic_bound(2), 3)
    v = u.restrict(sub)
    assert v.m == 3
    cm = u.coeff_map()
    for nu, c in zip(v.index_set.indices, v.coeffs):
        assert c == cm[nu]


def test_restrict_requires_subset():
    u = small_expansion(m=3)
    bigger = mi.enumerate_quasi_optimal(mi.isotropic_bound(2), 10)
    with pytest.raises(ConfigurationError):
        u.restrict(bigger)


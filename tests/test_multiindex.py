"""Tests for bound functions, quasi-optimal selection, volumes and tails."""

import itertools
import json
import math

import numpy as np
import pytest

from qopnet.errors import ConfigurationError, DimensionMismatchError, ResourceCapError
from qopnet import multiindex as mi


def brute_candidates(bound, window):
    """All (b, nu) with |nu|_1 <= window, sorted by (b, lex)."""
    out = []
    for nu in itertools.product(range(window + 1), repeat=bound.dim):
        if sum(nu) <= window:
            out.append((bound.value(nu), nu))
    out.sort()
    return out


def safe_window(bound, tau):
    """Box size beyond which no coordinate can re-enter {b <= tau}."""
    w = 0
    for i in range(bound.dim):
        n = 0
        while bound.coord_floor(i, n) <= tau + bound.log_c:
            n += 1
        w = max(w, n)
    return w


class TestBoundFunction:
    def test_taylor_value_is_weighted_degree(self):
        b = mi.taylor_bound((2.0, 8.0))
        assert b.value((2, 3)) == pytest.approx(2 * math.log(2) + 3 * math.log(8), rel=1e-15)
        assert b.value((0, 0)) == 0.0

    def test_isotropic_value_is_total_degree(self):
        b = mi.isotropic_bound(3)
        # log(e) is exactly 1.0 in floats, so the terms are exact integers
        assert b.value((4, 0, 7)) == 11.0

    def test_legendre_default_prefactor(self):
        b = mi.legendre_bound((2.0, 3.0))
        expect = 2 * math.log(2) - math.log(5) + 1 * math.log(3) - math.log(3)
        assert b.value((2, 1)) == pytest.approx(expect, rel=1e-15)

    def test_legendre_literal_prefactor(self):
        b = mi.legendre_bound((2.0,), literal_prefactor=True)
        assert b.value((0,)) == 0.0          # |2*0 - 1| = 1
        assert b.value((1,)) == pytest.approx(math.log(2.0), rel=1e-15)  # |2*1 - 1| = 1
        assert b.value((3,)) == pytest.approx(3 * math.log(2) - math.log(5), rel=1e-15)

    def test_log_prefactor_shifts_value(self):
        plain = mi.taylor_bound((2.0,))
        shifted = mi.taylor_bound((2.0,), log_c=0.7)
        assert shifted.value((5,)) == pytest.approx(plain.value((5,)) - 0.7, rel=1e-15)

    def test_legendre_dips_below_zero_for_small_rho(self):
        b = mi.legendre_bound((2.0,))
        assert b.value((1,)) < 0.0 < math.log(3)
        # the frontier key sees the dip behind the origin
        assert b.minorant((0,)) == b.value((1,)) < b.value((0,))

    def test_monotone_from_rho_three(self):
        # nondecreasing coordinate terms: the minorant is b itself
        for b in (mi.legendre_bound((3.0, 4.0)), mi.taylor_bound((1.1, 9.0))):
            for nu in itertools.product(range(12), repeat=2):
                assert b.minorant(nu) == b.value(nu)

    @pytest.mark.parametrize("rho", [(1.0,), (0.5, 2.0), (-3.0,)])
    def test_rho_must_exceed_one(self, rho):
        with pytest.raises(ConfigurationError):
            mi.taylor_bound(rho)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            mi.BoundFunction("chebyshev", rho=(2.0,))

    def test_dimension_mismatch(self):
        b = mi.taylor_bound((2.0, 3.0))
        with pytest.raises(DimensionMismatchError):
            b.value((1, 2, 3))

    def test_negative_index_rejected(self):
        b = mi.taylor_bound((2.0,))
        with pytest.raises(ConfigurationError):
            b.value((-1,))

    @pytest.mark.parametrize("bound", [
        mi.isotropic_bound(2),
        mi.taylor_bound((2.0, 8.0)),
        mi.legendre_bound((2.0, 3.0)),
        mi.legendre_bound((1.5, 6.0), literal_prefactor=True),
        mi.legendre_bound((2.5,), log_c=0.3),
    ])
    def test_envelope_brackets_sampled_values(self, bound):
        env = bound.envelope()
        rng = np.random.default_rng(7)
        for _ in range(200):
            nu = tuple(int(v) for v in rng.integers(0, 120, size=bound.dim))
            b = bound.value(nu)
            k = sum(nu)
            assert env.c_low * k - env.shift_low <= b + 1e-12
            assert b <= env.c_high * k + env.shift_high + 1e-12

    def test_envelope_orders_slopes(self):
        with pytest.raises(ConfigurationError):
            mi.GrowthEnvelope(2.0, 0.0, 1.0, 0.0)

    def test_json_round_trip(self):
        b = mi.legendre_bound((2.0, 3.5), log_c=0.25, literal_prefactor=True)
        doc = b.to_json_dict()
        assert set(doc) == {"kind", "rho", "logC", "literal_prefactor"}
        assert json.loads(json.dumps(doc)) == doc
        assert doc["rho"] == [2.0, 3.5] and doc["logC"] == 0.25


BOUNDS_FOR_SELECTION = [
    mi.isotropic_bound(2),
    mi.isotropic_bound(3),
    mi.taylor_bound((2.0, 8.0)),
    mi.legendre_bound((2.0, 3.0)),
    mi.legendre_bound((1.5,), literal_prefactor=True),
    mi.legendre_bound((1.5, 4.0), log_c=0.4),
]


class TestSelection:
    @pytest.mark.parametrize("bound", BOUNDS_FOR_SELECTION)
    @pytest.mark.parametrize("m", [1, 2, 5, 12, 40])
    def test_matches_brute_force(self, bound, m):
        window = 25 if bound.dim == 3 else 60
        sel = mi.enumerate_quasi_optimal(bound, m)
        oracle = brute_candidates(bound, window)[:m]
        assert list(sel.indices) == [nu for _, nu in oracle]
        assert sel.threshold == pytest.approx(oracle[-1][0], abs=1e-14)

    def test_lexicographic_tie_break(self):
        # 3*log(2) and log(8) are the same float, so (0,1) vs (3,0) is a
        # genuine tie and the lexicographically smaller index must win
        sel = mi.enumerate_quasi_optimal(mi.taylor_bound((2.0, 8.0)), 4)
        assert sel.indices == ((0, 0), (1, 0), (2, 0), (0, 1))
        assert sel.threshold == math.log(8.0)

    def test_dip_wins_over_origin(self):
        sel = mi.enumerate_quasi_optimal(mi.legendre_bound((2.0,)), 1)
        assert sel.indices == ((1,),)
        assert sel.threshold < 0.0

    def test_downward_closed_when_monotone(self):
        sel = mi.enumerate_quasi_optimal(mi.taylor_bound((2.0, 8.0)), 17)
        chosen = set(sel.indices)
        for nu in chosen:
            for i in range(2):
                if nu[i] > 0:
                    parent = nu[:i] + (nu[i] - 1,) + nu[i + 1:]
                    assert parent in chosen

    def test_threshold_is_max_exponent(self):
        sel = mi.enumerate_quasi_optimal(mi.legendre_bound((2.0, 3.0)), 9)
        assert sel.threshold == max(sel.bound.value(nu) for nu in sel.indices)
        assert mi.selection_threshold(sel) == sel.threshold

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            mi.enumerate_quasi_optimal(mi.isotropic_bound(1), 0)

    def test_pop_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            mi.enumerate_quasi_optimal(mi.isotropic_bound(2), 200, max_pops=10)

    def test_index_set_json_round_trip(self):
        sel = mi.enumerate_quasi_optimal(mi.taylor_bound((2.0, 8.0)), 6)
        doc = sel.to_json_dict()
        assert set(doc) == {"M", "J", "indices"}
        assert doc["M"] == 6
        back = json.loads(json.dumps(doc))
        assert [tuple(nu) for nu in back["indices"]] == list(sel.indices)
        assert back["J"] == sel.threshold


COUNT_CASES = [
    (mi.isotropic_bound(1), 17.0),
    (mi.isotropic_bound(2), 0.0),
    (mi.isotropic_bound(2), 37.5),
    (mi.taylor_bound((2.0, 8.0)), 10.3),
    (mi.legendre_bound((2.0, 3.0)), 6.7),
    (mi.legendre_bound((2.0, 3.0)), -0.2),
    (mi.legendre_bound((1.5, 2.0, 4.0)), 4.9),
    (mi.taylor_bound((3.0,), log_c=1.0), 6.0),
]


class TestSublevelCounting:
    @pytest.mark.parametrize("bound,tau", COUNT_CASES)
    def test_count_matches_brute_force(self, bound, tau):
        window = safe_window(bound, tau)
        got = mi.count_sublevel(bound, tau)
        brute = sum(1 for nu in itertools.product(range(window + 1), repeat=bound.dim)
                    if bound.value(nu) <= tau)
        assert got == brute

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("tau", [256.0, 1000.0])
    def test_isotropic_closed_form(self, d, tau):
        # {|nu|_1 <= t} holds comb(floor(t)+d, d) lattice points
        got = mi.count_sublevel(mi.isotropic_bound(d), tau)
        assert got == math.comb(int(tau) + d, d)

    @pytest.mark.parametrize("bound,tau", COUNT_CASES[:6])
    def test_iteration_agrees_with_count(self, bound, tau):
        pts = list(mi.iter_sublevel(bound, tau))
        assert len(pts) == mi.count_sublevel(bound, tau)
        assert pts == sorted(pts)  # lexicographic by construction
        for nu, b in pts:
            assert b == pytest.approx(bound.value(nu), abs=1e-12)
            assert b <= tau + 1e-12

    def test_count_cap_raises(self):
        with pytest.raises(ResourceCapError):
            mi.count_sublevel(mi.isotropic_bound(2), 2000.0, cap=1000)


class TestVolume:
    def test_plain_estimate_matches_lattice_ratio(self):
        # frozen: comb(1002, 2)/1000^2 = 0.501501
        v = mi.estimate_sublevel_volume(mi.isotropic_bound(2), tau=1000,
                                        extrapolate=False)
        assert v.lattice_count == 501501
        assert v.value == pytest.approx(0.501501, abs=1e-12)
        assert abs(v.value - 0.5) / 0.5 < 0.005

    def test_extrapolated_isotropic_d2(self):
        v = mi.estimate_sublevel_volume(mi.isotropic_bound(2), tau=512)
        assert v.extrapolated
        assert abs(v.value - 0.5) / 0.5 < 1e-3

    def test_extrapolated_isotropic_d3(self):
        v = mi.estimate_sublevel_volume(mi.isotropic_bound(3), tau=512)
        assert abs(v.value - 1.0 / 6.0) * 6.0 < 0.01
        assert v.lattice_count < 10 ** 8

    def test_halves_tau_under_cap(self):
        v = mi.estimate_sublevel_volume(mi.isotropic_bound(2), tau=8192,
                                        extrapolate=False, cap=1_000_000)
        assert v.tau < 8192
        assert v.lattice_count <= 1_000_000

    def test_tau_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            mi.estimate_sublevel_volume(mi.isotropic_bound(2), tau=0.0)

    def test_json_fields(self):
        v = mi.estimate_sublevel_volume(mi.isotropic_bound(1), tau=64)
        assert set(v.to_json_dict()) == {"value", "tau", "lattice_count",
                                         "extrapolated"}


class TestThresholdInterval:
    def test_frozen_interval_endpoints(self):
        # frozen: sqrt(231/0.75) and sqrt(924/0.5) evaluated independently
        sel = mi.enumerate_quasi_optimal(mi.isotropic_bound(2), 231)
        t = mi.threshold_interval(sel, volume=0.5, epsilon=0.5)
        assert t.lower == pytest.approx(17.549928774784245, rel=1e-15)
        assert t.upper == pytest.approx(30.397368307141328, rel=1e-15)
        assert t.threshold == sel.threshold
        assert t.caveat  # volume 0.5 <= 1 keeps this diagnostic-only

    def test_volume_validated(self):
        sel = mi.enumerate_quasi_optimal(mi.isotropic_bound(2), 5)
        with pytest.raises(ConfigurationError):
            mi.threshold_interval(sel, volume=0.0)


class TestTailSum:
    def test_bracket_matches_direct_shell_sum(self):
        # isotropic d=2, selection {|nu| <= 2}, cutoff 6: the tail is
        # sum over shells k >= 3 of (k+1)*exp(-k); frozen by direct fsum
        sel = mi.enumerate_quasi_optimal(mi.isotropic_bound(2), 6)
        br = mi.tail_sum(sel.bound, sel, 6.0)
        window = math.fsum((k + 1) * math.exp(-k) for k in range(3, 7))
        assert br.partial_sum == pytest.approx(window, rel=1e-13)
        full = 0.36088556902439606
        assert br.upper >= full * (1 - 1e-13)
        assert br.upper == pytest.approx(full, rel=1e-9)

    def test_larger_cutoff_tightens_bracket(self):
        sel = mi.enumerate_quasi_optimal(mi.taylor_bound((2.0, 8.0)), 10)
        loose = mi.tail_sum(sel.bound, sel, sel.threshold + 3.0)
        tight = mi.tail_sum(sel.bound, sel, sel.threshold + 30.0)
        assert tight.upper <= loose.upper
        assert tight.remainder_bound < loose.remainder_bound

    def test_bracket_dominates_brute_force(self):
        b = mi.legendre_bound((2.0, 3.0))
        sel = mi.enumerate_quasi_optimal(b, 12)
        br = mi.tail_sum(b, sel, sel.threshold + 60.0)
        window = safe_window(b, sel.threshold + 60.0) + 20
        chosen = set(sel.indices)
        brute = math.fsum(
            math.exp(-b.value(nu))
            for nu in itertools.product(range(window + 1), repeat=2)
            if nu not in chosen)
        # the brute window itself misses mass, so compare one-sidedly
        assert br.upper >= brute * (1 - 1e-12)
        assert br.upper <= brute * (1 + 1e-5)

    def test_cutoff_below_threshold_rejected(self):
        sel = mi.enumerate_quasi_optimal(mi.isotropic_bound(2), 6)
        with pytest.raises(ConfigurationError):
            mi.tail_sum(sel.bound, sel, sel.threshold)

    def test_inconsistent_selection_rejected(self):
        fake = mi.QuasiOptimalIndexSet(((99, 99),), 0.0, None)
        with pytest.raises(ConfigurationError):
            mi.tail_sum(mi.isotropic_bound(2), fake, 5.0)


class TestTailBoundReport:
    def test_constant_value(self):
        # frozen: (4e + 2e - 2)*e/(e-1) evaluated independently
        assert mi.tail_constant(0.5) == pytest.approx(22.637597798231578, rel=1e-15)
        with pytest.raises(ConfigurationError):
            mi.tail_constant(0.0)

    def test_report_passes_at_moderate_size(self):
        b = mi.isotropic_bound(2)
        sel = mi.enumerate_quasi_optimal(b, 20)
        rep = mi.tail_bound_report(b, sel, volume=0.5, epsilon=0.5)
        assert rep.passed
        assert rep.ratio == rep.tail_upper / rep.bound_rhs
        assert rep.caveat  # volume 0.5 <= 1
        assert rep.constant == mi.tail_constant(0.5)

    def test_report_json_fields(self):
        b = mi.isotropic_bound(2)
        sel = mi.enumerate_quasi_optimal(b, 8)
        doc = mi.tail_bound_report(b, sel, volume=0.5).to_json_dict()
        assert set(doc) == {"M", "epsilon", "constant", "tail_upper",
                            "bound_rhs", "ratio", "passed", "caveat"}

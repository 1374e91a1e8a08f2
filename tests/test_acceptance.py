"""End-to-end acceptance runs at desk scale.

One test per criterion; the -v line per test is the pass/fail record.  The
two convergence sweeps are shared module-scoped fixtures since several
criteria read them.
"""

import math
import time

import numpy as np
import pytest

from qopnet import ddfloat as dd
from qopnet import multiindex as mi
from qopnet import netcore as nc
from qopnet import orthopoly as op
from qopnet import synth
from qopnet import verify
from qopnet.sampling import SamplerSpec

FAMILY = op.shifted_legendre()


@pytest.fixture(scope="module")
def study_d1():
    # five-budget sweep in one dimension; large budgets force double-double
    start = time.monotonic()
    report, nets = verify.convergence_study(
        mi.isotropic_bound(1), FAMILY, [2, 4, 8, 16, 32], pvol=1.0, seed=7,
        coeff_cutoff=40.0, return_networks=True)
    return report, nets, time.monotonic() - start


@pytest.fixture(scope="module")
def study_d2():
    start = time.monotonic()
    report, nets = verify.convergence_study(
        mi.isotropic_bound(2), FAMILY, [6, 21, 66, 120], pvol=0.5, seed=11,
        return_networks=True)
    return report, nets, time.monotonic() - start


def shell_indices(d, total):
    if d == 1:
        return [(total,)]
    if d == 2:
        return [(k, total - k) for k in range(total + 1)]
    return [(i, j, total - i - j) for i in range(total + 1)
            for j in range(total + 1 - i)]


def window_indices(d, cap):
    return [nu for total in range(cap + 1)
            for nu in shell_indices(d, total)]


def test_criterion_01_selection_matches_brute_force():
    configs = [
        mi.isotropic_bound(1),
        mi.isotropic_bound(2),
        mi.isotropic_bound(3),
        mi.legendre_bound((1.5,)),
        mi.legendre_bound((3.0, 6.0)),
        mi.taylor_bound((1.5, 2.0, 3.0)),
        mi.legendre_bound((2.0, 3.0, 4.0)),
    ]
    start = time.monotonic()
    checked = 0
    for bound in configs:
        d = bound.dim
        cands = sorted(window_indices(d, 40),
                       key=lambda nu: (bound.value(nu), nu))
        values = [bound.value(nu) for nu in cands]
        # any index outside the window scores at least this much
        outside_floor = min(bound.minorant(nu) for nu in shell_indices(d, 41))
        for m in range(1, 201):
            if m > len(cands) or values[m - 1] >= outside_floor:
                break   # window too small to certify this budget
            lam = mi.enumerate_quasi_optimal(bound, m)
            assert list(lam.indices) == cands[:m], (bound.kind, d, m)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 900
    assert elapsed < 10.0
    print(f"criterion 1: {checked} budgets across {len(configs)} bounds "
          f"match brute force in {elapsed:.1f}s: PASS")


def test_criterion_02_volume_extrapolation_hits_simplex_volume():
    start = time.monotonic()
    for d in (1, 2, 3):
        est = mi.estimate_sublevel_volume(mi.isotropic_bound(d), tau=512.0)
        exact = 1.0 / math.factorial(d)
        assert abs(est.value - exact) <= 0.01 * exact, (d, est.value)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 2: extrapolated volumes within 1% for d=1,2,3 "
          f"in {elapsed:.1f}s: PASS")


def test_criterion_03_squaring_error_is_tight():
    grid = np.linspace(0.0, 1.0, 8193)[:, None]
    for m in range(1, 9):
        net = synth.square_network(m)
        err = np.max(np.abs(net.forward(grid)[:, 0] - grid[:, 0] ** 2))
        assert abs(err - 2.0 ** (-2 * m - 2)) <= 1e-12, m
    print("criterion 3: squaring error equals 2^-(2m+2) for m=1..8: PASS")


def test_criterion_04_product_budgets_and_complexity_model():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    complexity = {}
    for n in (2, 4, 8, 16):
        pts = rng.uniform(-1.0, 1.0, size=(100_000, n))
        ref = np.prod(pts, axis=1)
        for delta in (1e-1, 1e-2, 1e-3):
            net = synth.product_network(n, delta)
            err = np.max(np.abs(net.forward(pts)[:, 0] - ref))
            assert err <= delta, (n, delta, err)
            complexity[(n, delta)] = nc.audit(net).complexity
    fitted = complexity[(2, 1e-1)] / (1.0 + 2.0 * math.log(2.0 / 1e-1))
    worst = max(v / (fitted * (1.0 + n * math.log(n / delta)))
                for (n, delta), v in complexity.items())
    elapsed = time.monotonic() - start
    assert worst <= 4.0
    assert elapsed < 60.0
    print(f"criterion 4: products within budget at 1e5 points, complexity "
          f"within {worst:.2f}x of model in {elapsed:.1f}s: PASS")


def test_criterion_05_subnetworks_meet_their_budgets():
    cases = [
        (mi.isotropic_bound(1), 8, 1.0, 7, 40.0),
        (mi.isotropic_bound(2), 21, 0.5, 11, None),
    ]
    for bound, m, pvol, seed, cutoff in cases:
        lam = mi.enumerate_quasi_optimal(bound, m)
        if cutoff is None:
            cutoff = lam.threshold + 45.0
        target = op.synthetic_expansion(bound, FAMILY, cutoff, seed=seed)
        net, report = synth.expansion_network(target.restrict(lam), pvol)
        for nu, measured in report.measured_subnet_errors.items():
            assert measured <= report.budgets[nu], (bound.dim, nu)
    print("criterion 5: every measured subnetwork error sits within its "
          "accuracy budget (d=1 and d=2): PASS")


def test_criterion_06_error_decay_in_one_dimension(study_d1):
    report, _, elapsed = study_d1
    for row in report.rows:
        assert row.sup_error_uQ_uNN <= row.M * math.exp(-2.0 * row.M), row.M
    # degree <= 1 budgets evaluate exactly; slope reads the positive rows
    ms = [r.M for r in report.rows if r.sup_error_uQ_uNN > 0.0]
    errs = [r.sup_error_uQ_uNN for r in report.rows
            if r.sup_error_uQ_uNN > 0.0]
    assert len(ms) >= 3
    slope = verify.fit_log_slope(ms, errs)
    assert -2.6 <= slope <= -1.4, slope
    assert elapsed < 300.0
    print(f"criterion 6: errors below M exp(-2M) for M=2..32, decay slope "
          f"{slope:.2f} in [-2.6, -1.4], {elapsed:.0f}s: PASS")


def test_criterion_07_size_growth_in_two_dimensions(study_d2):
    report, _, elapsed = study_d2
    ms = [r.M for r in report.rows]
    cx = verify.check_scaling(ms, [r.complexity for r in report.rows], 2.0,
                              allowed_factor=4.0)
    assert cx.passed, cx
    depth = verify.check_depth_bound(report.rows, d=2, allowed_factor=2.0)
    assert depth.passed, depth
    assert report.warnings == ()
    assert elapsed < 300.0
    print(f"criterion 7: complexity within {cx.max_factor:.2f}x of the "
          f"M^2 fit, depth within {depth.max_factor:.2f}x of the "
          f"fitted envelope, {elapsed:.0f}s: PASS")


def test_criterion_08_first_layer_holds_two_units_per_degree(study_d1,
                                                             study_d2):
    for (report, nets, _), bound in ((study_d1, mi.isotropic_bound(1)),
                                     (study_d2, mi.isotropic_bound(2))):
        d = bound.dim
        sums = []
        for row in report.rows:
            lam = mi.enumerate_quasi_optimal(bound, row.M)
            expected = verify.check_first_layer_count(nets[row.M], lam)
            assert expected == 2 * sum(sum(nu) for nu in lam.indices)
            sums.append(expected // 2)
        chk = verify.check_scaling([r.M for r in report.rows], sums,
                                   1.0 + 1.0 / d, allowed_factor=4.0)
        assert chk.passed, (d, chk)
    print("criterion 8: first layers carry exactly 2*sum|nu| units and "
          "degree totals track M^(1+1/d): PASS")


def test_criterion_09_threshold_lands_in_predicted_interval():
    bound = mi.isotropic_bound(2)
    for j in range(10, 26):
        m = (j + 1) * (j + 2) // 2        # full simplex at level j
        lam = mi.enumerate_quasi_optimal(bound, m)
        assert lam.threshold == float(j)
        interval = mi.threshold_interval(lam, volume=0.5, epsilon=0.5)
        assert interval.inside, (j, interval)
    print("criterion 9: selection thresholds inside the predicted interval "
          "for J=10..25: PASS")


def test_criterion_10_tail_brackets_below_predicted_decay():
    start = time.monotonic()
    bound = mi.isotropic_bound(1)
    for m in range(10, 101):
        lam = mi.enumerate_quasi_optimal(bound, m)
        rep = mi.tail_bound_report(bound, lam, volume=1.0, epsilon=0.5)
        assert rep.passed, (m, rep.ratio)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 10: tail brackets below C(1/2) M exp(-M/1.5) for "
          f"M=10..100 in {elapsed:.1f}s: PASS")


def test_criterion_11_round_trips_are_bitwise(tmp_path, study_d1, study_d2):
    pts_by_dim = {d: SamplerSpec("halton", 100, seed=123).points(d)
                  for d in (1, 2)}
    count = 0
    for (report, nets, _), d in ((study_d1, 1), (study_d2, 2)):
        for m, net in nets.items():
            path = tmp_path / f"net_d{d}_m{m}.json"
            nc.save_network(net, path)
            back = nc.load_network(path)
            np.testing.assert_array_equal(back.forward(pts_by_dim[d]),
                                          net.forward(pts_by_dim[d]))
            count += 1
    print(f"criterion 11: {count} networks reload and evaluate bitwise at "
          f"100 seeded points: PASS")


# -- one-pass measurement and exact dd products -------------------------------


def _expansion_of(net):
    meta = net.metadata
    indices = tuple(tuple(nu) for nu in meta["index_set"])
    return op.QuasiOptimalExpansion(
        mi.QuasiOptimalIndexSet(indices, meta["threshold"], None),
        tuple(meta["coeffs"]), op.make_family(meta["family"]))


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _check_one_pass(net, pts):
    """Output layer on the body values == full forward, both precisions."""
    u = _expansion_of(net)
    live = [nu for nu in u.index_set.indices if sum(nu)]
    body = nc.ReluNetwork(net.input_dim, net.layers[:-1])
    out = net.layers[-1]
    full = net.forward(pts)[:, 0]
    assert _bits(out.forward(body.forward(pts).T)[0]) == _bits(full)
    _, sup = synth.measure_errors(net, live, u.family, pts, "float64", u)
    assert sup == float(np.max(np.abs(full - u.evaluate(pts))))
    hi, lo = body.forward_dd(pts)
    o_hi, o_lo = out.forward_dd(hi.T, lo.T)
    f_hi, f_lo = net.forward_dd(pts)
    assert _bits(o_hi[0], o_lo[0]) == _bits(f_hi[:, 0], f_lo[:, 0])
    _, sup = synth.measure_errors(net, live, u.family, pts, "dd", u)
    d_hi, d_lo = dd.sub_dd(f_hi[:, 0], f_lo[:, 0], *u.evaluate_dd(pts))
    assert sup == float(np.max(dd.abs_dd(d_hi, d_lo)[0]))


def test_one_pass_end_to_end_is_the_full_forward(study_d2):
    _, nets, _ = study_d2
    _check_one_pass(nets[66], SamplerSpec("grid", 101).points(2)[::37])
    bound = mi.isotropic_bound(3)
    lam = mi.enumerate_quasi_optimal(bound, 20)
    target = op.synthetic_expansion(bound, FAMILY, lam.threshold + 45.0,
                                    seed=4)
    halton = SamplerSpec("halton", 256, seed=9)
    net, _ = synth.expansion_network(target.restrict(lam), 1.0 / 6.0,
                                     sampler=halton)
    _check_one_pass(net, halton.points(3))


def test_exact_dd_products_match_mul_f64_bitwise(study_d1, monkeypatch):
    # every layer before the output is flagged; the tiny points send the
    # first layer of their batch through the underflow fallback
    _, nets, _ = study_d1
    pts = np.concatenate([SamplerSpec("grid", 1025).points(1)[::64],
                          [[0.0], [1.0], [1e-300], [5e-324]]])
    bodies = [nc.ReluNetwork(1, net.layers[:-1]) for net in nets.values()]
    fast = []
    for body in bodies:
        assert all(layer._groups()[1] for layer in body.layers)
        fast.append(_bits(*body.forward_dd(pts)))
    monkeypatch.setattr(nc, "_EXACT_MIN", np.inf)
    for body, bits in zip(bodies, fast):
        assert _bits(*body.forward_dd(pts)) == bits


def test_masked_relu_matches_gather_path_on_acceptance_networks(study_d1,
                                                                 study_d2):
    # Layer.forward's one masked maximum against the row gather, maximum
    # and scatter it replaced, layer by layer on every acceptance network
    def gather_forward(layer, x):
        z = layer.weights @ x + layer.bias[:, None]
        idx = np.nonzero(layer.relu_rows)[0]
        z[idx] = np.maximum(z[idx], 0.0)
        return z

    cases = [(study_d1, SamplerSpec("grid", 1025).points(1)[::64]),
             (study_d2, SamplerSpec("grid", 101).points(2)[::37])]
    for (_, nets, _), pts in cases:
        for net in nets.values():
            x = pts.T.copy()
            for layer in net.layers:
                got = layer.forward(x)
                assert _bits(got) == _bits(gather_forward(layer, x))
                x = got
            assert _bits(x.T) == _bits(net.forward(pts))

"""Network gadgets: squaring, products, budgets, and full assembly."""

import hashlib
import math

import numpy as np
import pytest

from qopnet import multiindex as mi
from qopnet import netcore as nc
from qopnet import orthopoly as op
from qopnet import synth
from qopnet.errors import ConfigurationError, SynthesisError
from qopnet.sampling import SamplerSpec

DYADIC = np.linspace(0.0, 1.0, 8193)[:, None]


# -- squaring -----------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 9))
def test_square_error_is_the_advertised_power_of_four(m):
    net = synth.square_network(m)
    err = np.max(np.abs(net.forward(DYADIC)[:, 0] - DYADIC[:, 0] ** 2))
    assert abs(err - 0.25 ** (m + 1)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_square_error_peak_is_exact_on_dyadic_grid(m):
    # peaks sit at refinement-level midpoints, which the 2^13 grid contains
    net = synth.square_network(m)
    err = np.max(np.abs(net.forward(DYADIC)[:, 0] - DYADIC[:, 0] ** 2))
    assert err == 0.25 ** (m + 1)


def test_square_exact_at_breakpoints():
    net = synth.square_network(3)
    knots = np.linspace(0.0, 1.0, 9)[:, None]
    np.testing.assert_array_equal(net.forward(knots)[:, 0], knots[:, 0] ** 2)


def test_square_midpoint_value_m1():
    assert synth.square_network(1).forward([[0.25]])[0, 0] == 0.125


def test_square_size_and_depth():
    for m in (1, 2, 5, 8):
        a = nc.audit(synth.square_network(m))
        assert a.depth == m + 1
        assert a.units == 4 * m


def test_square_refuses_nonpositive_level():
    with pytest.raises(ConfigurationError):
        synth.square_network(0)


# -- pairwise product ---------------------------------------------------------


def pair_grid(n=201):
    s = np.linspace(-1.0, 1.0, n)
    xx, yy = np.meshgrid(s, s, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_pairwise_product_error_bound(m):
    net = synth.pairwise_product_network(m)
    pts = pair_grid()
    err = np.abs(net.forward(pts)[:, 0] - pts[:, 0] * pts[:, 1])
    assert np.max(err) <= 3.0 * 0.25 ** (m + 1)


def test_pairwise_product_exact_at_corners_and_half():
    # dyadic inputs of level <= m sit on interpolation knots of all three
    # squaring copies, so the polarization errors cancel exactly
    net = synth.pairwise_product_network(2)
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
                    [0.5, 0.5], [0.0, 0.0]])
    out = net.forward(pts)[:, 0]
    np.testing.assert_array_equal(out, pts[:, 0] * pts[:, 1])


def test_pairwise_product_output_stays_in_unit_range():
    net = synth.pairwise_product_network(1)
    out = net.forward(pair_grid(41))[:, 0]
    assert np.min(out) >= -1.0 and np.max(out) <= 1.0


def test_pairwise_product_depth():
    for m in (1, 3, 5):
        assert synth.pairwise_product_network(m).depth == m + 4


def test_clamp_gadget_values():
    # bitwise equal to the closed form evaluated in the same order
    net = synth._clamp_network()
    pts = np.array([[2.7], [1.0], [0.3], [0.0], [-0.3], [-1.0], [-4.2]])
    ref = (np.maximum(pts + 1.0, 0.0) - np.maximum(pts - 1.0, 0.0)) - 1.0
    np.testing.assert_array_equal(net.forward(pts), ref)
    assert float(net.forward(np.array([[2.7]]))[0, 0]) == 1.0


# -- product trees ------------------------------------------------------------


def test_refinement_level_closed_form():
    # smallest m with 3(2n-1) 4^-(m+1) <= delta
    for n, delta in [(2, 0.1), (4, 0.1), (8, 1e-2), (16, 1e-3), (3, 0.5)]:
        m = synth.product_refinement_level(n, delta)
        assert 3.0 * (2 * n - 1) * 0.25 ** (m + 1) <= delta
        assert m == 1 or 3.0 * (2 * n - 1) * 0.25 ** m > delta


def test_refinement_level_known_case():
    assert synth.product_refinement_level(2, 0.1) == 3


def test_single_factor_product_is_identity():
    net = synth.product_network(1, 0.5)
    y = np.array([[-0.8], [0.0], [0.9]])
    np.testing.assert_array_equal(net.forward(y), y)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("delta", [1e-1, 1e-3])
def test_product_network_meets_budget(n, delta):
    net = synth.product_network(n, delta)
    rng = np.random.default_rng(n * 1000 + int(-math.log10(delta)))
    pts = rng.uniform(-1.0, 1.0, size=(2000, n))
    err = np.abs(net.forward(pts)[:, 0] - np.prod(pts, axis=1))
    assert np.max(err) <= delta


def test_product_network_exact_at_all_ones():
    net = synth.product_network(5, 1e-2)
    assert net.forward([[1.0] * 5])[0, 0] == 1.0


def test_product_network_is_built_once_per_level():
    level = synth.product_refinement_level(5, 1e-2)
    assert synth.product_refinement_level(5, 7e-3) == level
    assert synth.product_network(5, 7e-3) is synth.product_network(5, 1e-2)
    assert synth.product_network(5, 1e-4) is not \
        synth.product_network(5, 1e-2)


def _gadget_bytes(nets):
    return [(lay.weights.data.tobytes(), lay.weights.indices.tobytes(),
             lay.weights.indptr.tobytes(), lay.bias.tobytes())
            for net in nets for lay in net.layers]


def test_assembly_leaves_cached_gadgets_unchanged():
    b = mi.isotropic_bound(2)
    fam = op.shifted_legendre()
    uq = op.synthetic_expansion(b, fam, 40.0, seed=4).restrict(
        mi.enumerate_quasi_optimal(b, 12))
    budgets = synth.epsilon_schedule(b, uq.index_set, 0.5)
    trees = [synth.product_network(sum(nu), budgets[nu])
             for nu in uq.index_set.indices if sum(nu)]
    levels = {synth.product_refinement_level(sum(nu), budgets[nu])
              for nu in uq.index_set.indices if sum(nu) > 1}
    gadgets = trees + [f(m) for m in levels for f in (
        synth.square_network, synth.pairwise_product_network)]
    before = _gadget_bytes(gadgets)
    synth.expansion_network(uq, pvol=0.5)
    assert _gadget_bytes(gadgets) == before


# -- accuracy budgets ---------------------------------------------------------


def test_epsilon_schedule_frozen_example():
    # d=2 isotropic, 16 terms, unit volume: shared exponent sqrt(32)
    b = mi.isotropic_bound(2)
    lam = mi.enumerate_quasi_optimal(b, 16)
    sched = synth.epsilon_schedule(b, lam, 1.0)
    assert sched.global_exponent == pytest.approx(math.sqrt(32.0), rel=1e-15)
    assert sched[(0, 0)] == pytest.approx(0.0034934892766462, rel=1e-12)
    assert sched.clamped == () and sched.floored == ()


def test_epsilon_schedule_equalizes_weighted_terms():
    # exp(-b) * eps is constant across unclamped indices by construction
    b = mi.isotropic_bound(2)
    lam = mi.enumerate_quasi_optimal(b, 10)
    sched = synth.epsilon_schedule(b, lam, 1.0)
    products = {math.exp(-b.value(nu)) * sched[nu] for nu in lam.indices}
    assert max(products) / min(products) == pytest.approx(1.0, rel=1e-12)


def test_epsilon_schedule_clamps_below_asymptotic_sizes():
    b = mi.isotropic_bound(1)
    lam = mi.enumerate_quasi_optimal(b, 2)
    sched = synth.epsilon_schedule(b, lam, 100.0)   # tiny exponent 0.04
    assert sched[(1,)] == 1.0 - 1e-6
    assert sched.clamped == ((1,),)


def test_epsilon_schedule_rejects_bad_volume():
    b = mi.isotropic_bound(1)
    lam = mi.enumerate_quasi_optimal(b, 2)
    with pytest.raises(ConfigurationError):
        synth.epsilon_schedule(b, lam, 0.0)


def test_choose_precision_threshold():
    b = mi.isotropic_bound(1)
    lam = mi.enumerate_quasi_optimal(b, 4)
    loose = synth.epsilon_schedule(b, lam, 1.0)
    assert synth.choose_precision(1e-6, loose) == "float64"
    assert synth.choose_precision(1e-13, loose) == "dd"
    tight = synth.epsilon_schedule(b, mi.enumerate_quasi_optimal(b, 20), 1.0)
    assert synth.choose_precision(1.0, tight) == "dd"


def test_report_rejects_budget_violation():
    b = mi.isotropic_bound(1)
    lam = mi.enumerate_quasi_optimal(b, 3)
    sched = synth.epsilon_schedule(b, lam, 1.0)
    audit = nc.audit(nc.identity_network(1))
    measured = {nu: 0.0 for nu in lam.indices}
    measured[(2,)] = 1.0
    with pytest.raises(SynthesisError) as err:
        synth.SynthesisReport(audit, sched, measured, 1.0)
    assert "(2,)" in str(err.value)


# -- per-index subnetworks ----------------------------------------------------


def test_basis_first_layer_pairs_give_exact_differences():
    # unit pair (2j, 2j+1) of the factor layer recovers y_i - r_j exactly
    fam = op.shifted_legendre()
    net = synth.tensor_basis_network((2, 1), fam, 1e-3)
    h = net.layers[0].forward(np.array([[0.75], [0.3]]))[:, 0]
    r2 = fam.roots(2)
    np.testing.assert_array_equal(
        h[0::2] - h[1::2], [0.75 - r2[0], 0.75 - r2[1], 0.3 - 0.5])


def test_factor_layer_uses_one_input_weight_per_unit():
    fam = op.shifted_legendre()
    layer = synth.factor_layer((3, 0, 2), fam)
    assert layer.units == 2 * 5
    assert layer.nonzero_weights == 2 * 5
    counts = np.diff(layer.weights.indptr)
    np.testing.assert_array_equal(counts, 1)


def test_zero_index_subnetwork_is_constant_one():
    fam = op.shifted_legendre()
    net = synth.tensor_basis_network((0, 0), fam, 0.5)
    pts = np.random.default_rng(0).random((9, 2))
    np.testing.assert_array_equal(net.forward(pts)[:, 0], np.ones(9))


@pytest.mark.parametrize("nu,eps", [((3,), 1e-2), ((2, 2), 1e-3),
                                    ((1, 0, 4), 1e-4)])
def test_tensor_basis_network_meets_budget(nu, eps):
    fam = op.shifted_legendre()
    net = synth.tensor_basis_network(nu, fam, eps)
    rng = np.random.default_rng(sum(nu))
    pts = rng.random((3000, len(nu)))
    err = np.abs(net.forward(pts)[:, 0] - op.eval_tensor(fam, nu, pts))
    assert np.max(err) <= eps


def test_tensor_basis_network_first_layer_shape():
    fam = op.shifted_legendre()
    net = synth.tensor_basis_network((2, 3), fam, 1e-2)
    first = net.layers[0]
    assert first.units == 2 * 5
    assert first.nonzero_weights == 2 * 5
    assert first.activation == (nc.ACT_RELU,) * 10


# -- full assembly ------------------------------------------------------------


def assemble(m, seed=7):
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    u = op.synthetic_expansion(b, fam, 40.0, seed=seed)
    lam = mi.enumerate_quasi_optimal(b, m)
    return synth.expansion_network(u.restrict(lam), pvol=1.0)


def test_assembly_sup_error_within_global_bound():
    net, report = assemble(8)
    assert report.bound_rhs == pytest.approx(8.0 * math.exp(-16.0), rel=1e-15)
    assert report.bound_rhs == pytest.approx(9.002813977540729e-07, rel=1e-15)
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    u = op.synthetic_expansion(b, fam, 40.0, seed=7)
    uq = u.restrict(mi.enumerate_quasi_optimal(b, 8))
    pts = SamplerSpec("grid", 1025).points(1)
    sup = np.max(np.abs(net.forward(pts)[:, 0] - uq.evaluate(pts)))
    assert sup <= report.bound_rhs


def test_assembly_first_layer_carries_two_units_per_degree():
    net, report = assemble(8)
    total_degree = net.metadata["sum_degrees"]
    assert total_degree == sum(range(8))
    assert net.layers[0].units == 2 * total_degree
    assert net.layers[0].nonzero_weights == 2 * total_degree


def test_assembly_depth_is_one_past_deepest_member():
    net, report = assemble(6)
    deepest = max(v["depth"] for v in net.metadata["per_subnetwork"].values())
    assert net.depth == deepest + 1


def test_assembly_audit_additivity():
    net, report = assemble(6)
    a = report.audit
    members = net.metadata["per_subnetwork"].values()
    pad = net.metadata["padding"]
    assert a.units == sum(v["units"] for v in members) + pad["units"] + 1
    out_nnz = net.layers[-1].nonzero_weights
    assert a.nonzero_weights == (sum(v["nonzero_weights"] for v in members)
                                 + pad["nonzero_weights"] + out_nnz)


def test_assembly_measured_errors_within_budgets():
    net, report = assemble(8)
    for nu, err in report.measured_subnet_errors.items():
        assert err <= report.budgets[nu] * (1.0 + 1e-9) + 1e-28


def test_assembly_constant_only_expansion():
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    u = op.synthetic_expansion(b, fam, 40.0, seed=3)
    uq = u.restrict(mi.enumerate_quasi_optimal(b, 1))
    net, report = synth.expansion_network(uq, pvol=1.0)
    assert net.depth == 1
    out = net.forward(np.array([[0.1], [0.9]]))[:, 0]
    np.testing.assert_array_equal(out, [uq.coeffs[0]] * 2)


def test_assembly_requires_attached_bound():
    net_doc = assemble(3)[0]
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    u = op.synthetic_expansion(b, fam, 40.0, seed=7)
    uq = u.restrict(mi.enumerate_quasi_optimal(b, 3))
    orphan = op.QuasiOptimalExpansion(
        mi.QuasiOptimalIndexSet(uq.index_set.indices, uq.index_set.threshold,
                                None), uq.coeffs, uq.family)
    with pytest.raises(ConfigurationError):
        synth.expansion_network(orphan, pvol=1.0)


def test_assembly_round_trips_bitwise(tmp_path):
    net, _ = assemble(5)
    path = tmp_path / "assembled.json"
    nc.save_network(net, path)
    back = nc.load_network(path)
    pts = SamplerSpec("halton", 100, seed=5).points(1)
    np.testing.assert_array_equal(back.forward(pts), net.forward(pts))


def test_dd_body_bytes_are_pinned():
    # hi and lo of one double-double body pass of a d=1 M=8 network on the
    # 1025-point grid; any change to the dd layer pass that moves a bit of
    # either limb fails here
    bound = mi.isotropic_bound(1)
    lam = mi.enumerate_quasi_optimal(bound, 8)
    target = op.synthetic_expansion(bound, op.shifted_legendre(),
                                    lam.threshold + 45.0, seed=0)
    net, rep = synth.expansion_network(target.restrict(lam), 1.0,
                                       precision="dd")
    assert rep.precision == "dd"
    body = nc.ReluNetwork(1, net.layers[:-1])
    hi, lo = body.forward_dd(SamplerSpec("grid", 1025).points(1))
    assert hi.shape == (1025, 7)
    assert [hashlib.sha256(a.tobytes()).hexdigest() for a in (hi, lo)] == [
        "5d76c85a09996eb9572b9d53f577763359e03750c201a3f01e92e1237a6fd148",
        "ffd07fe5b856bd77d0b86c98da37afdf072046096bc731af2029feb440204f3b"]

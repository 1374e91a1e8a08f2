"""Layer and network mechanics: exactness, composition, serialization."""

import json
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from qopnet import netcore as nc
from qopnet.errors import (ConfigurationError, DimensionMismatchError,
                           NetworkFormatError)

DATA = pathlib.Path(__file__).parent / "data"


def random_net(seed, input_dim=3, widths=(7, 5, 2), density=0.6):
    rng = np.random.default_rng(seed)
    layers = []
    prev = input_dim
    for k, w in enumerate(widths):
        mat = rng.normal(size=(w, prev)) * (rng.random((w, prev)) < density)
        act = (nc.ACT_LINEAR,) * w if k == len(widths) - 1 \
            else (nc.ACT_RELU,) * w
        layers.append(nc.Layer(sp.csr_array(mat), rng.normal(size=w), act))
        prev = w
    return nc.ReluNetwork(input_dim, layers)


# -- layer validation ---------------------------------------------------------


def test_layer_rejects_bias_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        nc.Layer(np.ones((2, 3)), [0.0], (nc.ACT_RELU, nc.ACT_RELU))


def test_layer_rejects_activation_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        nc.Layer(np.ones((2, 3)), [0.0, 0.0], (nc.ACT_RELU,))


def test_layer_rejects_unknown_activation():
    with pytest.raises(ConfigurationError):
        nc.Layer(np.ones((1, 1)), [0.0], ("tanh",))


def test_layer_rejects_nonfinite_entries():
    with pytest.raises(ConfigurationError):
        nc.Layer(np.array([[np.nan]]), [0.0], (nc.ACT_RELU,))
    with pytest.raises(ConfigurationError):
        nc.Layer(np.ones((1, 1)), [np.inf], (nc.ACT_RELU,))


def test_layer_drops_explicit_zeros_from_counts():
    layer = nc.Layer(np.array([[1.0, 0.0], [0.0, 0.0]]), [0.0, 0.0],
                     (nc.ACT_RELU, nc.ACT_RELU))
    assert layer.nonzero_weights == 1


def test_network_rejects_width_chain_break():
    l1 = nc.Layer(np.ones((2, 1)), [0.0, 0.0], (nc.ACT_RELU,) * 2)
    l2 = nc.Layer(np.ones((1, 3)), [0.0], (nc.ACT_LINEAR,))
    with pytest.raises(DimensionMismatchError):
        nc.ReluNetwork(1, [l1, l2])


# -- evaluation ---------------------------------------------------------------


def test_identity_network_is_exact_for_both_signs():
    net = nc.identity_network(1)
    y = np.array([[-3.5], [-1e-12], [0.0], [0.25], [7.0]])
    np.testing.assert_array_equal(net.forward(y), y)


def test_identity_gadget_audit_counts():
    a = nc.audit(nc.identity_network(1))
    assert (a.units, a.nonzero_weights, a.biases, a.depth) == (3, 4, 3, 2)
    assert a.complexity == 10


def test_forward_is_chunk_invariant():
    net = random_net(0)
    pts = np.random.default_rng(1).normal(size=(1000, 3))
    base = net.forward(pts, chunk=4096)
    for chunk in (1, 7, 128, 999):
        np.testing.assert_array_equal(net.forward(pts, chunk=chunk), base)


def _gather_relu_forward(layer, x):
    """Layer.forward as it was before the masked step: gather, max, scatter."""
    z = layer.weights @ x + layer.bias[:, None]
    if layer.relu_rows.any():
        idx = np.nonzero(layer.relu_rows)[0]
        z[idx] = np.maximum(z[idx], 0.0)
    return z


def test_masked_relu_matches_gather_path_bitwise():
    w = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [1.0, -1.0], [0.5, 0.5], [0.0, 0.0]])
    bias = [-0.0, 0.0, -0.0, 0.25, 0.0, -0.5, -0.0]
    act = (nc.ACT_RELU, nc.ACT_LINEAR, nc.ACT_RELU, nc.ACT_LINEAR,
           nc.ACT_RELU, nc.ACT_RELU, nc.ACT_LINEAR)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 40))
    x[:, :8] = [[0.0, -0.0, 1e-300, -1e-300, 5e-324, np.inf, -np.inf, np.nan],
                [-0.0, 0.0, -5e-324, 0.25, -0.25, -np.inf, np.nan, 1.0]]
    for layer in (nc.Layer(w, bias, act),
                  nc.Layer(w, bias, (nc.ACT_RELU,) * 7),
                  nc.Layer(w, bias, (nc.ACT_LINEAR,) * 7),
                  nc.Layer(np.zeros((0, 2)), [], ())):
        assert layer.relu_rows.dtype == bool
        got = layer.forward(x.copy())
        assert got.shape == (layer.units, 40)
        assert got.tobytes() == _gather_relu_forward(layer, x.copy()).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_both_passes_reject_nonfinite_points(bad):
    net = random_net(12)
    pts = np.full((5, 3), 0.5)
    pts[3, 1] = bad
    with pytest.raises(ConfigurationError):
        net.forward(pts)
    with pytest.raises(ConfigurationError):
        net.forward_dd(pts)


def test_forward_dd_high_limb_matches_forward():
    # same accumulation order, so the high limb reproduces float64 closely
    net = random_net(2)
    pts = np.random.default_rng(3).normal(size=(50, 3))
    hi, lo = net.forward_dd(pts)
    np.testing.assert_allclose(hi, net.forward(pts), rtol=0, atol=1e-12)
    assert np.max(np.abs(lo)) < 1e-12


def test_forward_dd_chunk_invariant(monkeypatch):
    net = random_net(4)
    pts = np.random.default_rng(5).normal(size=(300, 3))
    h1, l1 = net.forward_dd(pts, chunk=1024)
    h2, l2 = net.forward_dd(pts, chunk=37)
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(l1, l2)
    monkeypatch.setattr(nc, "_DD_BATCH_BYTES", 8)  # 16-point batches
    h3, l3 = net.forward_dd(pts)
    assert [h3.tobytes(), l3.tobytes()] == [h1.tobytes(), l1.tobytes()]


def test_forward_dd_power_of_two_weights_match_mul_f64(monkeypatch):
    # signed powers of two take the exact product; forcing every batch onto
    # dd.mul_f64 must not move a bit, signed zeros included
    rng = np.random.default_rng(6)
    w = rng.choice([-1.0, 1.0], size=(6, 4)) \
        * 2.0 ** rng.integers(-60, 8, size=(6, 4))
    w[0, 1] = 0.0
    layer = nc.Layer(w, rng.normal(size=6),
                     (nc.ACT_RELU,) * 3 + (nc.ACT_LINEAR,) * 3)
    assert layer._groups()[1]
    hi = rng.normal(size=(4, 64))
    lo = hi * 2.0 ** -60 * rng.normal(size=(4, 64))
    hi[:, :3] = [[0.0, -0.0, 1.0]] * 4
    lo[:, :3] = [[-0.0, 0.0, -0.0]] * 4
    lo[1, 10:20] = -0.0
    fast = layer.forward_dd(hi, lo)
    monkeypatch.setattr(nc, "_EXACT_MIN", np.inf)
    slow = layer.forward_dd(hi, lo)
    assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow]


def test_forward_dd_subnormal_products_take_mul_f64(monkeypatch):
    # 1.57998778e-312 * -2^-15 rounds in the subnormal range, where the
    # shortcut and the Dekker product disagree; the range guard must
    # send the batch through dd.mul_f64
    layer = nc.Layer([[-2.0 ** -15]], [0.0], (nc.ACT_LINEAR,))
    hi = np.array([[1.57998778e-312, 0.75]])
    got = layer.forward_dd(hi, np.zeros_like(hi))
    monkeypatch.setattr(nc, "_EXACT_MIN", np.inf)
    want = layer.forward_dd(hi, np.zeros_like(hi))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    monkeypatch.setattr(nc, "_EXACT_MIN", 0.0)
    unguarded = layer.forward_dd(hi, np.zeros_like(hi))
    assert unguarded[0].tobytes() != want[0].tobytes()


def test_forward_dd_flags_only_power_of_two_layers():
    assert nc.Layer([[0.5, -4.0]], [0.3], (nc.ACT_RELU,))._groups()[1]
    assert not nc.Layer([[0.5, 3.0]], [0.0], (nc.ACT_RELU,))._groups()[1]
    assert not nc.Layer([[2.0 ** -120]], [0.0], (nc.ACT_RELU,))._groups()[1]


def test_evaluate_accepts_single_point():
    net = nc.identity_network(2)
    out = net.forward([[0.3, -0.4]])[0]
    np.testing.assert_array_equal(out, [0.3, -0.4])


# -- combinators --------------------------------------------------------------


def test_stack_composes_functions():
    a = nc.identity_network(1)
    b = nc.identity_network(1)
    net = nc.stack(a, b)
    y = np.array([[-1.5], [0.6]])
    np.testing.assert_array_equal(net.forward(y), y)
    assert net.depth == a.depth + b.depth


def test_stack_checks_interface_width():
    with pytest.raises(DimensionMismatchError):
        nc.stack(nc.identity_network(1), nc.identity_network(2))


def test_parallel_shared_input():
    net = nc.parallel([nc.identity_network(1), nc.identity_network(1)])
    y = np.array([[0.7], [-0.2]])
    np.testing.assert_array_equal(net.forward(y), np.hstack([y, y]))
    assert net.metadata["output_slices"] == [[0, 1], [1, 2]]


def test_parallel_separate_inputs():
    net = nc.parallel([nc.identity_network(1), nc.identity_network(1)],
                      shared_input=False)
    y = np.array([[0.7, -0.2], [1.5, 0.1]])
    np.testing.assert_array_equal(net.forward(y), y)


def test_parallel_pads_shorter_members_exactly():
    deep = nc.stack(nc.identity_network(1), nc.identity_network(1))
    shallow = nc.identity_network(1)
    net = nc.parallel([deep, shallow])
    assert net.depth == deep.depth
    y = np.array([[0.4], [-0.9], [2.5]])
    np.testing.assert_array_equal(net.forward(y), np.hstack([y, y]))
    pad = net.metadata["padding"]
    # identity pads are LINEAR passthroughs, one unit and one weight per slot
    assert pad["units"] == 2 and pad["nonzero_weights"] == 2


def test_precompose_linear_folds_matrix_into_first_layer():
    net = nc.identity_network(2)
    mix = np.array([[0.0, 1.0], [-1.0, 0.0]])
    composed = nc.precompose_linear(net, mix)
    y = np.random.default_rng(6).normal(size=(20, 2))
    np.testing.assert_array_equal(composed.forward(y), y @ mix.T)
    assert composed.depth == net.depth
    assert composed.input_dim == 2


def test_audit_additivity_over_parallel():
    a, b = random_net(7), random_net(8)
    both = nc.parallel([a, b])
    pad = both.metadata["padding"]
    aa, ab, ac = nc.audit(a), nc.audit(b), nc.audit(both)
    assert ac.units == aa.units + ab.units + pad["units"]
    assert ac.nonzero_weights == (aa.nonzero_weights + ab.nonzero_weights
                                  + pad["nonzero_weights"])
    assert ac.depth == max(aa.depth, ab.depth)


# -- serialization ------------------------------------------------------------


def test_json_round_trip_is_bitwise(tmp_path):
    net = random_net(9)
    net = nc.ReluNetwork(net.input_dim, net.layers, {"tag": "round-trip"})
    path = tmp_path / "net.json"
    nc.save_network(net, path)
    back = nc.load_network(path)
    assert back.input_dim == net.input_dim
    assert back.metadata == net.metadata
    for la, lb in zip(net.layers, back.layers):
        np.testing.assert_array_equal(la.weights.toarray(),
                                      lb.weights.toarray())
        np.testing.assert_array_equal(la.bias, lb.bias)
        assert la.activation == lb.activation
    pts = np.random.default_rng(10).normal(size=(100, 3))
    np.testing.assert_array_equal(back.forward(pts), net.forward(pts))


def test_large_layer_serializes_as_coordinates(tmp_path):
    w = sp.csr_array(([2.5, -1.0], ([0, 0], [3, 19999])), shape=(1, 20000))
    net = nc.ReluNetwork(20000, [nc.Layer(w, [0.25], (nc.ACT_LINEAR,))])
    doc = nc.to_json_dict(net)
    assert isinstance(doc["layers"][0]["weights"], dict)
    path = tmp_path / "wide.json"
    nc.save_network(net, path)
    back = nc.load_network(path)
    assert (back.layers[0].weights != net.layers[0].weights).nnz == 0
    np.testing.assert_array_equal(back.layers[0].bias, net.layers[0].bias)


def test_golden_network_file_still_loads():
    # frozen on-disk example; the format must keep reading it
    net = nc.load_network(DATA / "golden_net.json")
    a = nc.audit(net)
    assert (a.units, a.nonzero_weights, a.depth) == (3, 4, 2)
    out = net.forward(np.array([[0.25], [-2.0]]))
    np.testing.assert_array_equal(out, [[0.75], [-1.5]])
    assert net.metadata == {"note": "identity plus one half"}


def test_golden_network_round_trips_unchanged():
    doc = json.loads((DATA / "golden_net.json").read_text())
    assert nc.to_json_dict(nc.from_json_dict(doc)) == doc


@pytest.mark.parametrize("mangle,fragment", [
    (lambda d: d.pop("input_dim"), "input_dim"),
    (lambda d: d["layers"][0].pop("bias"), "layers[0].bias"),
    (lambda d: d["layers"][1].__setitem__("weights", [[1.0], [1.0, 2.0]]),
     "layers[1].weights"),
    (lambda d: d["layers"][0]["activation"].__setitem__(0, "step"),
     "layers[0]"),
    (lambda d: d["layers"][0]["weights"][0].__setitem__(0, float("nan")),
     "layers[0]"),
    (lambda d: d.__setitem__("layers", []), "layers"),
])
def test_parse_errors_name_the_field(mangle, fragment):
    doc = json.loads((DATA / "golden_net.json").read_text())
    mangle(doc)
    with pytest.raises(NetworkFormatError) as err:
        nc.from_json_dict(doc)
    assert fragment in str(err.value)

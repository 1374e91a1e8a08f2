"""ReLU-network intermediate representation.

A network is an ordered list of layers; layer k applies an affine map to
the previous layer's outputs and then, per unit, either the ReLU hinge or
nothing (LINEAR tag).  Construction-time combinators cover everything the
synthesis needs: sequential stacking, side-by-side parallel placement with
depth padding, and pre-composition with an exact linear rewiring of the
inputs.

Weights are held in CSR form with sorted indices and explicit zeros
dropped, so nonzero counts are exact and matrix-vector products accumulate
in a fixed stored order; evaluation is bitwise reproducible across batch
sizes and across stack/parallel composition.

The double-double pass (Layer.forward_dd) also sums each row one stored
entry at a time, in stored order.  Each layer caches a plan that orders
its rows by nonzero count, descending, so the rows that own a k-th entry
are a prefix of that order.  The pass adds rank k's products into that
prefix in place, applies the hinge in place, and restores the row order
once at the end.  Rows never mix, and each runs the same operations on the
same operands as in a row-by-row sum, so hi and lo are bitwise the same
whatever the order, signed zeros included.

Serialized documents store small layers as dense row-major lists (the
native format) and switch to a coordinate listing for large layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from qopnet import ddfloat as dd
from qopnet.errors import (
    ConfigurationError,
    DimensionMismatchError,
    NetworkFormatError,
)

ACT_RELU = "relu"
ACT_LINEAR = "linear"

_DENSE_DOC_LIMIT = 16384  # rows*cols above this serialize as coordinates
_EXACT_MIN, _EXACT_MAX = 2.0 ** -900, 2.0 ** 900  # forward_dd exact range
_BATCH_BYTES = 2 ** 18  # batch temporaries this small stay in cache


class Layer:
    """One affine map plus per-unit activation tags.

    weights may be a dense array-like or any scipy sparse matrix, shape
    (units, fan_in); zero-unit layers are allowed (the empty factor layer
    convention).  Instances are immutable after construction.
    """

    def __init__(self, weights, bias, activation):
        if sp.issparse(weights):
            w = sp.csr_array(weights, dtype=float)
        else:
            w = sp.csr_array(np.atleast_2d(np.asarray(weights, dtype=float)))
        w.sum_duplicates()
        w.eliminate_zeros()
        w.sort_indices()
        bias = np.array(bias, dtype=float).reshape(-1)
        activation = tuple(activation)
        if w.shape[0] != bias.shape[0] or w.shape[0] != len(activation):
            raise DimensionMismatchError(
                f"layer shape mismatch: {w.shape[0]} weight rows, "
                f"{bias.shape[0]} biases, {len(activation)} activation tags")
        bad = [t for t in activation if t not in (ACT_RELU, ACT_LINEAR)]
        if bad:
            raise ConfigurationError(f"unknown activation tag {bad[0]!r}")
        if w.nnz and not np.all(np.isfinite(w.data)):
            raise ConfigurationError("layer weights must be finite")
        if bias.size and not np.all(np.isfinite(bias)):
            raise ConfigurationError("layer biases must be finite")
        self.weights = w
        self.bias = bias
        self.activation = activation
        self.relu_rows = np.array([t == ACT_RELU for t in activation],
                                  dtype=bool)
        self.bias.setflags(write=False)
        self._plan = None

    @property
    def units(self):
        return self.weights.shape[0]

    @property
    def fan_in(self):
        return self.weights.shape[1]

    @property
    def nonzero_weights(self):
        return int(self.weights.nnz)

    def forward(self, x):
        """x: (fan_in, npts) -> (units, npts), float64, built in place."""
        z = self.weights @ x
        z += self.bias[:, None]
        return np.maximum(z, 0.0, out=z, where=self.relu_rows[:, None])

    def _dd_plan(self):
        """forward_dd's evaluation order, built once (see _DDPlan)."""
        if self._plan is None:
            w = self.weights
            counts = np.diff(w.indptr)
            order = np.argsort(-counts, kind="stable")
            first = w.indptr[order]
            ranks = []
            for k in range(int(counts.max()) if counts.size else 0):
                at = first[:np.count_nonzero(counts > k)] + k
                ranks.append((at.size, w.indices[at], w.data[at][:, None]))
            relu = self.relu_rows[order]
            mant, expo = np.frexp(w.data)
            self._plan = _DDPlan(
                np.argsort(order), ranks, self.bias[order][:, None],
                None if not relu.any() else True if relu.all()
                else relu[:, None],
                bool(np.all((np.abs(mant) == 0.5) & (np.abs(expo) <= 100))))
        return self._plan

    def forward_dd(self, x_hi, x_lo):
        """Double-double forward pass, same contract as forward.

        Rows run in the plan's order (see the module docstring): rank k's
        products go through preallocated buffers and are added into the
        prefix views acc[:n_k] in place, the hinge is one masked in-place
        pass, and one gather per limb restores the row order.  Elementwise
        arithmetic does not depend on where a row sits, so hi and lo are
        bitwise those of gathering each rank's rows and scattering them
        back, signed zeros included.

        For power-of-two weights w the Dekker error term in dd.mul_f64 is
        +0.0, so its product is quick_two_sum(x_hi*w, 0.0 + x_lo*w) bit for
        bit, signed zeros included, while no product leaves the normal
        range: a batch with a nonzero |x_hi| outside [2^-900, 2^900], or a
        non-finite one, takes dd.mul_f64.
        """
        plan = self._dd_plan()
        exact = plan.exact
        if exact:
            mag = np.abs(x_hi)
            exact = bool(np.all((mag == 0.0) | ((mag >= _EXACT_MIN)
                                                & (mag <= _EXACT_MAX))))
        acc_hi, acc_lo, p, q, r, t_hi, t_lo = np.empty(
            (7, self.units, x_hi.shape[1]))
        acc_hi[:] = plan.bias
        acc_lo[:] = 0.0
        for n, cols, w in plan.ranks:
            hi, lo = acc_hi[:n], acc_lo[:n]
            if exact:
                # cols are in range; "clip" only skips the buffered check
                x = x_hi.take(cols, axis=0, out=p[:n], mode="clip")
                x *= w
                y = x_lo.take(cols, axis=0, out=q[:n], mode="clip")
                y *= w
                y += 0.0  # addition commutes bitwise: 0.0 + x_lo*w
                s, e = dd.quick_two_sum(x, y, out=(t_hi[:n], t_lo[:n]))
            else:
                s, e = dd.mul_f64(x_hi[cols], x_lo[cols], w)
            dd.add_dd(hi, lo, s, e, out=(hi, lo),
                      work=(p[:n], q[:n], r[:n]))
        if plan.relu is not None:
            dd.relu_dd(acc_hi, acc_lo, out=(acc_hi, acc_lo), where=plan.relu)
        return acc_hi.take(plan.rank_of, axis=0), \
            acc_lo.take(plan.rank_of, axis=0)


class _DDPlan(NamedTuple):
    """A layer's rows ordered by nonzero count, descending (stable).

    ranks holds, for each k, the number n of rows with more than k entries
    (the first n in that order) and the column and weight of their k-th
    stored entry; rank_of maps each row to its place in the order.  bias
    is permuted to match; relu is None (no ReLU rows), True (all) or the
    permuted ReLU mask as a column; exact says every weight is +-2^e,
    |e| <= 100.
    """

    rank_of: np.ndarray
    ranks: list
    bias: np.ndarray
    relu: object
    exact: bool


class ReluNetwork:
    """Layered network with free-form metadata annotations."""

    def __init__(self, input_dim, layers, metadata=None):
        if input_dim < 1:
            raise ConfigurationError(f"input_dim must be >= 1, got {input_dim}")
        layers = tuple(layers)
        if not layers:
            raise ConfigurationError("a network needs at least one layer")
        fan = input_dim
        for k, layer in enumerate(layers):
            if layer.fan_in != fan:
                raise DimensionMismatchError(
                    f"layer {k} expects fan-in {layer.fan_in}, "
                    f"previous width is {fan}")
            fan = layer.units
        self.input_dim = int(input_dim)
        self.layers = layers
        self.metadata = {} if metadata is None else dict(metadata)

    @property
    def output_dim(self):
        return self.layers[-1].units

    @property
    def depth(self):
        return len(self.layers)

    def _batches(self, points, chunk):
        """Check points once, a finite (npts, input_dim) array, and yield
        them as (input_dim, n) batches of at most chunk points and, at the
        widest layer, about _BATCH_BYTES per float64 array."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.input_dim:
            raise DimensionMismatchError(
                f"points have {pts.shape[1]} coordinates, "
                f"network expects {self.input_dim}")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("input points must be finite")
        widest = max(1, *(layer.units for layer in self.layers))
        step = min(chunk, max(16, _BATCH_BYTES // (8 * widest)))
        for start in range(0, pts.shape[0], step):
            yield pts[start:start + step].T.copy()

    def forward(self, points, chunk=1024):
        """Batch forward pass: (npts, input_dim) -> (npts, output_dim)."""
        outs = []
        for x in self._batches(points, chunk):
            for layer in self.layers:
                x = layer.forward(x)
            outs.append(x.T)
        return np.concatenate(outs, axis=0)

    def forward_dd(self, points, chunk=1024):
        """Double-double forward pass -> (hi, lo), batched as forward."""
        his, los = [], []
        for hi in self._batches(points, chunk):
            lo = np.zeros_like(hi)
            for layer in self.layers:
                hi, lo = layer.forward_dd(hi, lo)
            his.append(hi.T)
            los.append(lo.T)
        return np.concatenate(his, axis=0), np.concatenate(los, axis=0)


# -- combinators -----------------------------------------------------------


def stack(a, b):
    """Sequential composition: feed a's outputs into b.  Depths add."""
    if a.output_dim != b.input_dim:
        raise DimensionMismatchError(
            f"cannot stack: first network emits {a.output_dim}, "
            f"second expects {b.input_dim}")
    return ReluNetwork(a.input_dim, a.layers + b.layers)


@lru_cache(maxsize=None)
def _identity_pad_layer(width):
    return Layer(sp.eye_array(width, format="csr"), np.zeros(width),
                 (ACT_LINEAR,) * width)


def parallel(nets, shared_input=True):
    """Side-by-side placement; outputs concatenate in member order.

    Shorter members are padded to the common depth with LINEAR identity
    layers (one cached layer per width) appended after their own layers;
    the padding is counted by the audit and its size is recorded in
    metadata["padding"].  Each merged level concatenates the members'
    canonical CSR arrays: data as is, column indices shifted by the
    member's input offset (none on a shared first level), row pointers by
    the running nonzero count.  Every member's own rows are thus copied
    verbatim, so each member evaluates bitwise identically to its
    standalone form.
    """
    nets = list(nets)
    if not nets:
        raise ConfigurationError("parallel needs at least one member")
    if shared_input:
        dims = {n.input_dim for n in nets}
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"shared_input requires equal input dims, got {sorted(dims)}")
        input_dim = nets[0].input_dim
    else:
        input_dim = sum(n.input_dim for n in nets)
    depth = max(n.depth for n in nets)
    pad_units = sum(n.output_dim * (depth - n.depth) for n in nets)
    merged = []
    for level in range(depth):
        layers = [n.layers[level] if level < n.depth
                  else _identity_pad_layer(n.output_dim) for n in nets]
        shared = level == 0 and shared_input
        indices, indptr = [], [np.zeros(1, dtype=np.int32)]
        col = nnz = 0
        for layer in layers:
            w = layer.weights
            indices.append(w.indices + col)
            indptr.append(w.indptr[1:] + nnz)
            col += 0 if shared else layer.fan_in
            nnz += w.nnz
        shape = (sum(layer.units for layer in layers),
                 input_dim if shared else col)
        weights = sp.csr_array(
            (np.concatenate([layer.weights.data for layer in layers]),
             np.concatenate(indices), np.concatenate(indptr)), shape=shape)
        bias = np.concatenate([layer.bias for layer in layers])
        act = tuple(chain.from_iterable(layer.activation for layer in layers))
        merged.append(Layer(weights, bias, act))
    meta = {"padding": {"units": pad_units, "nonzero_weights": pad_units,
                        "biases": pad_units}}
    return ReluNetwork(input_dim, merged, meta)


def precompose_linear(net, matrix):
    """Rewire inputs: the new network computes net(matrix @ x).

    The first layer's weights become W0 @ matrix; with at most one nonzero
    per column of ``matrix`` (every use here) the products are exact.
    """
    m = sp.csr_array(matrix) if sp.issparse(matrix) else sp.csr_array(
        np.atleast_2d(np.asarray(matrix, dtype=float)))
    first = net.layers[0]
    if first.fan_in != m.shape[0]:
        raise DimensionMismatchError(
            f"matrix emits {m.shape[0]}, first layer expects {first.fan_in}")
    w0 = sp.csr_array(first.weights @ m)
    new_first = Layer(w0, first.bias, first.activation)
    return ReluNetwork(m.shape[1], (new_first,) + net.layers[1:], net.metadata)


def identity_network(width=1):
    """The pass-through gadget x = relu(x) - relu(-x), one value per input."""
    rows, cols, vals = [], [], []
    for i in range(width):
        rows += [2 * i, 2 * i + 1]
        cols += [i, i]
        vals += [1.0, -1.0]
    w1 = sp.csr_array((vals, (rows, cols)), shape=(2 * width, width))
    l1 = Layer(w1, np.zeros(2 * width), (ACT_RELU,) * (2 * width))
    rows2, cols2, vals2 = [], [], []
    for i in range(width):
        rows2 += [i, i]
        cols2 += [2 * i, 2 * i + 1]
        vals2 += [1.0, -1.0]
    w2 = sp.csr_array((vals2, (rows2, cols2)), shape=(width, 2 * width))
    l2 = Layer(w2, np.zeros(width), (ACT_LINEAR,) * width)
    return ReluNetwork(width, (l1, l2))


# -- audit -------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityAudit:
    """Raw size counts; complexity = units + nonzero_weights + biases."""

    units: int
    nonzero_weights: int
    biases: int
    depth: int
    per_subnetwork: dict | None = None

    @property
    def complexity(self):
        return self.units + self.nonzero_weights + self.biases

    def to_json_dict(self):
        doc = {"units": self.units, "nonzero_weights": self.nonzero_weights,
               "biases": self.biases, "depth": self.depth,
               "complexity": self.complexity}
        if self.per_subnetwork is not None:
            doc["per_subnetwork"] = {
                str(k): dict(v) for k, v in self.per_subnetwork.items()}
        return doc


def audit(net, per_subnetwork=None):
    units = sum(layer.units for layer in net.layers)
    nnz = sum(layer.nonzero_weights for layer in net.layers)
    return ComplexityAudit(units, nnz, units, net.depth, per_subnetwork)


# -- serialization -----------------------------------------------------------


def _layer_to_doc(layer):
    r, c = layer.weights.shape
    if r * c <= _DENSE_DOC_LIMIT:
        weights = layer.weights.toarray().tolist()
    else:
        coo = layer.weights.tocoo()
        weights = {"shape": [r, c], "rows": coo.row.tolist(),
                   "cols": coo.col.tolist(), "values": coo.data.tolist()}
    return {"weights": weights, "bias": layer.bias.tolist(),
            "activation": list(layer.activation)}


def _layer_from_doc(doc, where):
    if not isinstance(doc, dict):
        raise NetworkFormatError(f"{where}: expected an object")
    for key in ("weights", "bias", "activation"):
        if key not in doc:
            raise NetworkFormatError(f"{where}.{key}: missing")
    w = doc["weights"]
    if isinstance(w, dict):
        for key in ("shape", "rows", "cols", "values"):
            if key not in w:
                raise NetworkFormatError(f"{where}.weights.{key}: missing")
        try:
            shape = tuple(int(v) for v in w["shape"])
            mat = sp.csr_array(
                (np.asarray(w["values"], dtype=float),
                 (np.asarray(w["rows"], dtype=int),
                  np.asarray(w["cols"], dtype=int))), shape=shape)
        except (TypeError, ValueError) as exc:
            raise NetworkFormatError(f"{where}.weights: {exc}") from exc
    elif isinstance(w, list):
        try:
            arr = np.asarray(w, dtype=float)
        except (TypeError, ValueError) as exc:
            raise NetworkFormatError(f"{where}.weights: {exc}") from exc
        if arr.ndim != 2:
            raise NetworkFormatError(
                f"{where}.weights: expected a list of rows")
        mat = arr
    else:
        raise NetworkFormatError(
            f"{where}.weights: expected rows or a coordinate object")
    if not isinstance(doc["bias"], list):
        raise NetworkFormatError(f"{where}.bias: expected a list")
    if not isinstance(doc["activation"], list):
        raise NetworkFormatError(f"{where}.activation: expected a list")
    try:
        return Layer(mat, doc["bias"], doc["activation"])
    except (ConfigurationError, DimensionMismatchError) as exc:
        raise NetworkFormatError(f"{where}: {exc}") from exc


def to_json_dict(net):
    return {"input_dim": net.input_dim,
            "layers": [_layer_to_doc(layer) for layer in net.layers],
            "metadata": net.metadata}


def from_json_dict(doc):
    if not isinstance(doc, dict):
        raise NetworkFormatError("network document: expected an object")
    for key in ("input_dim", "layers"):
        if key not in doc:
            raise NetworkFormatError(f"network document.{key}: missing")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise NetworkFormatError("network document.layers: expected a "
                                 "non-empty list")
    layers = [_layer_from_doc(ld, f"layers[{k}]")
              for k, ld in enumerate(doc["layers"])]
    try:
        return ReluNetwork(int(doc["input_dim"]), layers,
                           doc.get("metadata") or {})
    except (ConfigurationError, DimensionMismatchError, TypeError,
            ValueError) as exc:
        raise NetworkFormatError(f"network document: {exc}") from exc


def save_network(net, path):
    with open(path, "w") as fh:
        json.dump(to_json_dict(net), fh)
        fh.write("\n")


def load_network(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(f"{path}: invalid JSON: {exc}") from exc
    return from_json_dict(doc)

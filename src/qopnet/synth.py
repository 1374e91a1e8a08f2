"""Gadget-by-gadget synthesis of the approximation network.

The construction chain, bottom to top:

* ``square_network``: sawtooth-composition approximation of t^2 on [0,1],
  exact at dyadic breakpoints, sup error exactly 4^-(m+1).
* ``pairwise_product_network``: x*y on [-1,1]^2 by the polarization
  identity over three squaring nets, finished by an exact ReLU clamp so
  the output never leaves [-1,1].
* ``product_network``: balanced binary tree of pairwise nodes; the clamp
  between stages keeps every intermediate bounded, which makes node
  errors plainly additive.
* ``factor_layer``: the 2k ReLU units whose (+1, -1) pairs give the root
  differences (y_i - r_j) exactly.
* ``tensor_basis_network``: factor layer feeding a product tree through
  an exact +/-1 pairing, approximating one monic tensor-product basis
  member to a requested accuracy.
* ``expansion_network``: all basis subnetworks in parallel under one
  LINEAR combination unit, with per-index accuracy budgets from
  ``epsilon_schedule`` and a measured audit in a ``SynthesisReport``.

All weights written here are signs, dyadic rationals, or polynomial
roots, so construction is float-exact; only the intended mathematical
approximation error remains.

The three gadgets are built once per shape and shared by every caller:
squares and pairwise nodes per refinement level m, product trees per
(n, m).  The netcore combinators share or copy their members' layers
but never write to them, so networks built from a gadget leave it as
it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp

from qopnet import ddfloat as dd
from qopnet import netcore as nc
from qopnet.errors import ConfigurationError, SynthesisError
from qopnet.orthopoly import eval_tensor, eval_tensor_dd
from qopnet.sampling import default_sampler

# measurements switch to double-double below this budget; float64 noise
# sits around 1e-15 and must stay well under the smallest asserted bound
_DD_BUDGET_THRESHOLD = 1e-12


@lru_cache(maxsize=None)
def square_network(m):
    """Approximate t^2 on [0,1] to sup error exactly 4^-(m+1).

    Layer 1 holds the three hat units sigma(t), sigma(t-1/2), sigma(t-1);
    every later layer rebuilds the hats of the next sawtooth iterate plus
    one running-total unit.  The running total t - sum_s g_s/4^s is a
    convex interpolant of t^2, hence nonnegative, so carrying it through
    ReLU is exact.  All weights are dyadic.
    """
    if m < 1:
        raise ConfigurationError(f"refinement level must be >= 1, got {m}")
    layers = [nc.Layer([[1.0], [1.0], [1.0]], [0.0, -0.5, -1.0],
                       (nc.ACT_RELU,) * 3)]
    hat = [2.0, -4.0, 2.0]
    for s in range(2, m + 1):
        scale = 0.25 ** (s - 1)
        if s == 2:
            rows = [hat + [], hat + [], hat + [],
                    [1.0 - 2.0 * scale, 4.0 * scale, -2.0 * scale]]
        else:
            rows = [hat + [0.0], hat + [0.0], hat + [0.0],
                    [-2.0 * scale, 4.0 * scale, -2.0 * scale, 1.0]]
        layers.append(nc.Layer(rows, [0.0, -0.5, -1.0, 0.0],
                               (nc.ACT_RELU,) * 4))
    scale = 0.25 ** m
    if m == 1:
        out = nc.Layer([[1.0 - 2.0 * scale, 4.0 * scale, -2.0 * scale]],
                       [0.0], (nc.ACT_LINEAR,))
    else:
        out = nc.Layer([[-2.0 * scale, 4.0 * scale, -2.0 * scale, 1.0]],
                       [0.0], (nc.ACT_LINEAR,))
    return nc.ReluNetwork(1, layers + [out])


def _clamp_network():
    """Exact projection onto [-1,1]: sigma(u+1) - sigma(u-1) - 1."""
    l1 = nc.Layer([[1.0], [1.0]], [1.0, -1.0], (nc.ACT_RELU,) * 2)
    l2 = nc.Layer([[1.0, -1.0]], [-1.0], (nc.ACT_LINEAR,))
    return nc.ReluNetwork(1, (l1, l2))


@lru_cache(maxsize=None)
def pairwise_product_network(m):
    """x*y on [-1,1]^2 with sup error <= 3*4^-(m+1), output clamped.

    Polarization: x*y = (1/2)[4*(|x+y|/2)^2 - |x|^2 - |y|^2]; absolute
    values come from sigma-pairs, the three squares share one refinement
    level, and the exact clamp keeps the output admissible for the next
    tree stage.
    """
    if m < 1:
        raise ConfigurationError(f"refinement level must be >= 1, got {m}")
    w_abs = [[0.5, 0.5], [-0.5, -0.5],
             [1.0, 0.0], [-1.0, 0.0],
             [0.0, 1.0], [0.0, -1.0]]
    abs_net = nc.ReluNetwork(
        2, (nc.Layer(w_abs, np.zeros(6), (nc.ACT_RELU,) * 6),))
    squares = nc.parallel([square_network(m)] * 3, shared_input=False)
    pair_up = [[1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]]
    squares = nc.precompose_linear(squares, pair_up)
    combine = nc.precompose_linear(_clamp_network(), [[2.0, -0.5, -0.5]])
    return nc.stack(abs_net, nc.stack(squares, combine))


def product_refinement_level(n, delta):
    """Smallest m >= 1 with (2n-1)*3*4^-(m+1) <= delta (uniform per node)."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"accuracy must lie in (0,1), got {delta}")
    if n < 1:
        raise ConfigurationError(f"need at least one input, got {n}")
    m = 1
    while (2 * n - 1) * 3.0 * 0.25 ** (m + 1) > delta:
        m += 1
    return m


def product_network(n, delta):
    """Approximate the product of n inputs in [-1,1] to sup error <= delta.

    Balanced binary tree of pairwise nodes at one shared refinement level
    m = product_refinement_level(n, delta); odd elements ride identity
    channels.  n=1 is the identity gadget (error 0 regardless of delta).
    The tree depends on delta only through m, so it is built once per
    (n, m) and every caller gets that same network.
    """
    return _product_tree(n, product_refinement_level(n, delta))


@lru_cache(maxsize=None)
def _product_tree(n, m):
    if n == 1:
        return nc.identity_network(1)
    node = pairwise_product_network(m)
    levels = []
    width = n
    while width > 1:
        members = [node] * (width // 2)
        if width % 2:
            members = members + [nc.identity_network(1)]
        levels.append(nc.parallel(members, shared_input=False))
        width = width // 2 + width % 2
    return reduce(nc.stack, levels)


# -- accuracy budgets --------------------------------------------------------


@dataclass(frozen=True)
class EpsilonSchedule:
    """Per-index accuracy budgets epsilon = exp(b(nu) - global_exponent).

    global_exponent is (2M/pvol)^(1/d).  Raw values that leave (0,1) are
    pulled back in and recorded: >= 1 clamps to 1 - 1e-6 (below-asymptotic
    sizes), exact underflow floors at 1e-300.
    """

    per_index: dict
    global_exponent: float
    pvol: float
    clamped: tuple
    floored: tuple

    def __getitem__(self, nu):
        return self.per_index[tuple(nu)]


def epsilon_schedule(bound, index_set, pvol):
    """Budgets that equalize coefficient-bound times accuracy across indices.

    With |c_nu| <= exp(-b(nu)) each unclamped term satisfies
    |c_nu|*eps_nu = exp(-global_exponent), so the m-term total matches
    m*exp(-global_exponent) exactly.
    """
    if pvol <= 0:
        raise ConfigurationError(f"pvol must be positive, got {pvol}")
    m = index_set.m
    d = index_set.dim
    g = (2.0 * m / pvol) ** (1.0 / d)
    per = {}
    clamped = []
    floored = []
    for nu in index_set.indices:
        raw = math.exp(bound.value(nu) - g)
        if raw >= 1.0:
            per[nu] = 1.0 - 1e-6
            clamped.append(nu)
        elif raw == 0.0:
            per[nu] = 1e-300
            floored.append(nu)
        else:
            per[nu] = raw
    return EpsilonSchedule(per, g, float(pvol), tuple(clamped), tuple(floored))


# -- per-index subnetworks ---------------------------------------------------


def factor_layer(nu, family):
    """The 2k ReLU units sigma(y_i - r), sigma(r - y_i), k = |nu|_1.

    Exactly one input weight per unit; consumers recover each difference
    y_i - r as unit pair (+1, -1), which is exact by the ReLU identity.
    """
    d = len(nu)
    rows, cols, vals, bias = [], [], [], []
    unit = 0
    for i, degree in enumerate(nu):
        for r in family.roots(degree):
            rows += [unit, unit + 1]
            cols += [i, i]
            vals += [1.0, -1.0]
            bias += [-r, r]
            unit += 2
    weights = sp.csr_array((vals, (rows, cols)), shape=(unit, d))
    return nc.Layer(weights, np.array(bias), (nc.ACT_RELU,) * unit)


def _pairing_matrix(k):
    rows, cols, vals = [], [], []
    for j in range(k):
        rows += [j, j]
        cols += [2 * j, 2 * j + 1]
        vals += [1.0, -1.0]
    return sp.csr_array((vals, (rows, cols)), shape=(k, 2 * k))


def tensor_basis_network(nu, family, eps):
    """Approximate the monic tensor-product member nu to sup error <= eps.

    Factor layer into a product tree; the pairing is folded into the
    tree's first layer, so the factor units feed the tree directly and
    the input-to-first-layer weight count stays at 2|nu|_1.  nu = 0 is
    the constant-1 unit.
    """
    nu = tuple(int(v) for v in nu)
    d = len(nu)
    k = sum(nu)
    if k == 0:
        const = nc.Layer(sp.csr_array((1, d)), [1.0], (nc.ACT_LINEAR,))
        return nc.ReluNetwork(d, (const,))
    tree = nc.precompose_linear(product_network(k, eps), _pairing_matrix(k))
    return nc.ReluNetwork(d, (factor_layer(nu, family),) + tree.layers)


# -- assembly ----------------------------------------------------------------


def within_budget(err, eps):
    """The budget contract err <= eps, with slack for measuring arithmetic."""
    return err <= eps * (1.0 + 1e-9) + 1e-28


@dataclass(frozen=True)
class SynthesisReport:
    """Audit, budgets, and measured per-index errors of one synthesis.

    Constructing the report enforces the budget contract: every measured
    subnetwork error must sit within its epsilon (tiny slack for the
    measurement arithmetic itself).
    """

    audit: nc.ComplexityAudit
    budgets: EpsilonSchedule
    measured_subnet_errors: dict
    bound_rhs: float
    precision: str | None = None  # of the measurement; not in the JSON
    measured_sup: float | None = None  # end to end, on request; not in JSON

    def __post_init__(self):
        bad = [(nu, err, self.budgets.per_index[nu])
               for nu, err in self.measured_subnet_errors.items()
               if not within_budget(err, self.budgets.per_index[nu])]
        if bad:
            nu, err, eps = bad[0]
            raise SynthesisError(
                f"{len(bad)} subnetwork(s) exceed their accuracy budget; "
                f"first offender nu={nu}: measured {err:.6e} > budget {eps:.6e}")

    def to_json_dict(self):
        return {
            "M": len(self.budgets.per_index),
            "pvol": self.budgets.pvol,
            "global_exponent": self.budgets.global_exponent,
            "budgets": [{"nu": list(nu), "eps": e}
                        for nu, e in self.budgets.per_index.items()],
            "measured_errors": [{"nu": list(nu), "error": e}
                                for nu, e in self.measured_subnet_errors.items()],
            "audit": self.audit.to_json_dict(),
        }


def _nu_key(nu):
    return ",".join(str(v) for v in nu)


def choose_precision(bound_rhs, budgets):
    """float64 or dd, by the smallest of bound_rhs and the budgets."""
    per_index = getattr(budgets, "per_index", budgets)
    smallest = min([bound_rhs, *per_index.values()])
    return "dd" if smallest < _DD_BUDGET_THRESHOLD else "float64"


def _dd_sup(hi, lo, ref_hi, ref_lo):
    d_hi, d_lo = dd.sub_dd(hi, lo, ref_hi, ref_lo)
    return float(np.max(dd.abs_dd(d_hi, d_lo)[0]))


def measure_errors(net, live, family, pts, mode, expansion=None):
    """({nu: sup error}, end-to-end sup or None) from one body pass.

    The body (all layers but the last) runs once on pts, in mode "float64"
    or "dd"; its column j is compared with member live[j].  Given the
    expansion, the output layer is applied to the same body values, which
    is bitwise the full forward pass (every row sums in stored order).
    """
    body = nc.ReluNetwork(net.input_dim, net.layers[:-1]) \
        if net.depth > 1 else None
    out, errors, sup = net.layers[-1], {}, None
    if mode == "dd":
        hi, lo = body.forward_dd(pts) if body else (pts, np.zeros_like(pts))
        for j, nu in enumerate(live):
            errors[nu] = _dd_sup(hi[:, j], lo[:, j],
                                 *eval_tensor_dd(family, nu, pts))
        if expansion is not None:
            o_hi, o_lo = out.forward_dd(hi.T, lo.T)
            sup = _dd_sup(o_hi[0], o_lo[0], *expansion.evaluate_dd(pts))
    else:
        got = body.forward(pts) if body else pts
        for j, nu in enumerate(live):
            ref = eval_tensor(family, nu, pts)
            errors[nu] = float(np.max(np.abs(got[:, j] - ref)))
        if expansion is not None:
            vals = out.forward(got.T)[0]
            sup = float(np.max(np.abs(vals - expansion.evaluate(pts))))
    return errors, sup


def expansion_network(expansion, pvol, sampler=None, precision="auto",
                      end_to_end=False):
    """Assemble the full approximation network for an expansion.

    Every index above zero gets its own basis subnetwork at its scheduled
    budget; the subnetworks run in parallel over the shared input and a
    single LINEAR unit forms the coefficient combination.  The zero index
    contributes exactly through the output bias.

    Returns (network, SynthesisReport).  The per-subnetwork sup errors are
    taken on the sampler's points, in double-double arithmetic whenever
    budgets drop below what float64 can resolve; the report constructor
    then enforces budget compliance.
    end_to_end=True also records the network's own sup error against the
    expansion, from the same body pass.
    """
    index_set = expansion.index_set
    bound = index_set.bound
    if bound is None:
        raise ConfigurationError(
            "expansion carries no bound function; rebuild it with one "
            "attached to compute accuracy budgets")
    d = index_set.dim
    family = expansion.family
    budgets = epsilon_schedule(bound, index_set, pvol)
    m = index_set.m
    bound_rhs = m * math.exp(-budgets.global_exponent)

    members = []
    member_indices = []
    zero_coeff = 0.0
    for nu, c in zip(index_set.indices, expansion.coeffs):
        if sum(nu) == 0:
            zero_coeff = c
            continue
        members.append(tensor_basis_network(nu, family, budgets.per_index[nu]))
        member_indices.append(nu)

    per_subnet = {}
    for nu, net in zip(member_indices, members):
        a = nc.audit(net)
        per_subnet[_nu_key(nu)] = {"units": a.units,
                                   "nonzero_weights": a.nonzero_weights,
                                   "depth": a.depth}

    if members:
        body = nc.parallel(members, shared_input=True)
        out_w = np.array([[c for nu, c in zip(index_set.indices,
                                              expansion.coeffs)
                           if sum(nu) != 0]])
        out = nc.Layer(out_w, [zero_coeff], (nc.ACT_LINEAR,))
        padding = body.metadata["padding"]
        layers = body.layers + (out,)
    else:
        # constant-only expansion: one LINEAR unit carrying the bias
        out = nc.Layer(sp.csr_array((1, d)), [zero_coeff], (nc.ACT_LINEAR,))
        padding = {"units": 0, "nonzero_weights": 0, "biases": 0}
        layers = (out,)

    metadata = {
        "index_set": [list(nu) for nu in index_set.indices],
        "threshold": index_set.threshold,
        "coeffs": list(expansion.coeffs),
        "family": family.kind,
        "pvol": budgets.pvol,
        "global_exponent": budgets.global_exponent,
        "epsilon": {_nu_key(nu): e for nu, e in budgets.per_index.items()},
        "per_subnetwork": per_subnet,
        "padding": padding,
        "sum_degrees": int(sum(sum(nu) for nu in index_set.indices)),
    }
    net = nc.ReluNetwork(d, layers, metadata)
    full_audit = nc.audit(net, per_subnetwork=per_subnet)

    measured = {nu: 0.0 for nu in index_set.indices if sum(nu) == 0}
    mode = sup = None
    if members or end_to_end:
        if sampler is None:
            sampler = default_sampler(d)
        mode = precision
        if mode == "auto":
            mode = choose_precision(bound_rhs, budgets)
        errors, sup = measure_errors(net, member_indices, family,
                                     sampler.points(d), mode,
                                     expansion if end_to_end else None)
        measured.update(errors)

    return net, SynthesisReport(full_audit, budgets, measured, bound_rhs,
                                mode, sup)

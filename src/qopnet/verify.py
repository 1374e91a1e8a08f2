"""Convergence studies and bound checks over assembled networks.

A study sweeps term budgets, assembles one network per budget from a shared
synthetic target, and records for each the measured approximation error, the
truncation-tail bracket, and size counters, as one row.  Reports serialize to
a CSV with a fixed column order plus a JSON sidecar that echoes the full
configuration and gives each row the precision it was measured in
(float64 or dd); everything except the wall_time column and the sidecar
timestamp is reproducible byte for byte.

The per-row error chain has three links, each checked or enforced here or in
the synthesis step:

  1. every per-index subnetwork meets its accuracy budget (enforced when the
     synthesis report is constructed);
  2. the coefficient-weighted budget total stays within the a-priori
     right-hand side;
  3. the measured end-to-end error stays within the coefficient-weighted
     measured subnetwork errors (triangle inequality at the sample points).

Violations raise VerificationError.  Monotonicity of size counters across
rows is a soft expectation: failures are recorded as warnings naming the
offending row, never raised.

The target the chain certifies is the expansion in the monic basis whose
roots are rounded to float64 (see qopnet.orthopoly).  Below about 1e-18 the
certified errors say nothing about the exact shifted-Legendre expansion,
which differs from that target by about that much.
"""

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import multiindex as mi
from . import synth
from .errors import (ConfigurationError, ResourceCapError, VerificationError)
from .orthopoly import synthetic_expansion
from .sampling import default_sampler

# desk-scale envelope: refuse study configurations beyond this up front
MAX_DIM = 3
MAX_TERMS = 256
MAX_DEGREE_SUM = 40

# default target support, here and in `qopnet synth`: every index with
# b(nu) <= (largest selection threshold) + TARGET_MARGIN
TARGET_MARGIN = 45.0

CSV_COLUMNS = ("M", "J", "pvol", "sup_error_uQ_uNN", "tail_bound_u_uQ",
               "total_bound", "complexity", "units", "nonzero_weights",
               "depth", "bound_rhs", "wall_time")
_INT_COLUMNS = {"M", "complexity", "units", "nonzero_weights", "depth"}


@dataclass(frozen=True)
class StudyRow:
    M: int
    J: float
    pvol: float
    sup_error_uQ_uNN: float
    tail_bound_u_uQ: float
    total_bound: float
    complexity: int
    units: int
    nonzero_weights: int
    depth: int
    bound_rhs: float
    wall_time: float
    precision: str | None = None  # of the measurement; sidecar only

    def as_dict(self):
        return {name: getattr(self, name) for name in CSV_COLUMNS}


@dataclass(frozen=True)
class StudyReport:
    rows: tuple
    config_echo: dict
    warnings: tuple = field(default=())

    def row_for(self, m):
        for row in self.rows:
            if row.M == m:
                return row
        raise KeyError(m)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                rec = row.as_dict()
                writer.writerow([
                    str(rec[c]) if c in _INT_COLUMNS else "%.17e" % rec[c]
                    for c in CSV_COLUMNS])

    def sidecar_dict(self):
        return {
            "version": __version__,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "config_echo": self.config_echo,
            "columns": list(CSV_COLUMNS),
            "rows": [{**row.as_dict(), "precision": row.precision}
                     for row in self.rows],
            "warnings": list(self.warnings),
        }

    def write(self, csv_path, sidecar_path=None):
        """CSV plus JSON sidecar; sidecar defaults to csv_path + '.json'."""
        self.write_csv(csv_path)
        if sidecar_path is None:
            sidecar_path = str(csv_path) + ".json"
        with open(sidecar_path, "w") as fh:
            json.dump(self.sidecar_dict(), fh, indent=1)
            fh.write("\n")


def _check_envelope(bound, m_values):
    if bound.dim > MAX_DIM:
        raise ResourceCapError(
            f"study limited to dimension <= {MAX_DIM}, got {bound.dim}")
    worst = max(m_values)
    if worst > MAX_TERMS:
        raise ResourceCapError(
            f"study limited to {MAX_TERMS} terms, got {worst}")


def _check_chain(expansion, report, sup):
    """Links 2 and 3 of the error chain; link 1 held at construction.

    Link 3 compares float sums: out = fl(c_0 + sum c_nu b_nu) of the body
    values, ref = fl(sum c_nu t_nu) of the computed tensor values, and e_nu
    compares b_nu with that t_nu.  A recursive sum of k terms is off by at
    most gamma_k sum |terms|, gamma_k = k u / (1 - k u) (Higham, Accuracy and
    Stability, ch. 3); with |t_nu| <= 1 (|y_i - r| <= 1 on [0,1]^d) and
    |b_nu| <= 1 + e_nu, |out - ref| <= sum |c_nu| (e_nu + gamma_(M+1) (2 +
    e_nu)) over M terms.  In float64 (u = 2^-53) exact subnetworks (degree
    <= 1) leave that rounding term; in dd the 1e-27 absorbs it.
    """
    coeff = expansion.coeff_map()
    budget_total = math.fsum(abs(coeff[nu]) * report.budgets[nu]
                             for nu in coeff)
    if budget_total > report.bound_rhs * (1.0 + 1e-9):
        raise VerificationError(
            f"weighted budget total {budget_total:.6e} exceeds a-priori "
            f"bound {report.bound_rhs:.6e}")
    errors = report.measured_subnet_errors
    triangle = math.fsum(abs(coeff[nu]) * err for nu, err in errors.items())
    slack = 1e-27
    if report.precision == "float64":
        ku = (len(coeff) + 1) * 2.0 ** -53
        slack += ku / (1.0 - ku) * math.fsum(
            abs(c) * (2.0 + errors[nu]) for nu, c in coeff.items())
    if sup > triangle * (1.0 + 1e-9) + slack:
        raise VerificationError(
            f"measured error {sup:.6e} exceeds triangle total {triangle:.6e}")
    return budget_total, triangle


def convergence_study(bound, family, m_values, pvol=None, sampler=None,
                      seed=0, coeff_cutoff=None, tail_margin=60.0,
                      precision="auto", return_networks=False):
    """Sweep term budgets and collect one row per assembled network.

    The quasi-optimal set is selected once, for the largest budget; each
    row takes its first m indices.  The synthetic target is drawn once from
    the seed with coefficients sitting exactly on the decay bound, then
    restricted to each row's set.  pvol defaults to the extrapolated
    sublevel volume estimate.  coeff_cutoff (target support) defaults to TARGET_MARGIN past
    the largest selection threshold; the tail bracket always extends tail_margin past
    each row's own threshold.
    """
    m_values = sorted(set(int(m) for m in m_values))
    if not m_values or m_values[0] < 1:
        raise ConfigurationError("m_values must be positive integers")
    _check_envelope(bound, m_values)
    d = bound.dim
    if pvol is None:
        pvol = mi.estimate_sublevel_volume(bound).value
    if sampler is None:
        sampler = default_sampler(d)

    largest = mi.enumerate_quasi_optimal(bound, m_values[-1])
    worst_degree = max(sum(nu) for nu in largest.indices)
    if worst_degree > MAX_DEGREE_SUM:
        raise ResourceCapError(
            f"largest index degree {worst_degree} exceeds study cap "
            f"{MAX_DEGREE_SUM}")
    if coeff_cutoff is None:
        coeff_cutoff = largest.threshold + TARGET_MARGIN
    target = synthetic_expansion(bound, family, coeff_cutoff, seed=seed)

    rows = []
    nets = {}
    for m in m_values:
        start = time.perf_counter()
        # under the (b, lex) order each smaller selection is a prefix
        lam = mi.QuasiOptimalIndexSet(
            largest.indices[:m], bound.value(largest.indices[m - 1]), bound)
        uq = target.restrict(lam)
        net, report = synth.expansion_network(uq, pvol, sampler=sampler,
                                              precision=precision,
                                              end_to_end=True)
        sup = report.measured_sup
        _check_chain(uq, report, sup)
        if sup > report.bound_rhs:
            raise VerificationError(
                f"M={m}: measured error {sup:.6e} exceeds bound "
                f"{report.bound_rhs:.6e}")
        tail = mi.tail_sum(bound, lam, cutoff=lam.threshold + tail_margin)
        audit = report.audit
        rows.append(StudyRow(
            M=m, J=lam.threshold, pvol=float(pvol),
            sup_error_uQ_uNN=sup, tail_bound_u_uQ=tail.upper,
            total_bound=sup + tail.upper,
            complexity=audit.complexity, units=audit.units,
            nonzero_weights=audit.nonzero_weights, depth=audit.depth,
            bound_rhs=report.bound_rhs,
            wall_time=time.perf_counter() - start,
            precision=report.precision))
        if return_networks:
            nets[m] = net

    warnings = _monotonicity_warnings(rows)
    echo = {
        "bound": bound.to_json_dict(),
        "family": family.to_json_value(),
        "m_values": m_values,
        "pvol": float(pvol),
        "sampler": sampler.to_json_dict(),
        "seed": seed,
        "coeff_cutoff": coeff_cutoff,
        "tail_margin": tail_margin,
        "precision": precision,
    }
    report = StudyReport(tuple(rows), echo, tuple(warnings))
    if return_networks:
        return report, nets
    return report


def _monotonicity_warnings(rows):
    """Size counters should grow with the budget; report rather than fail."""
    out = []
    for name in ("complexity", "depth"):
        prev = None
        for row in rows:
            val = getattr(row, name)
            if prev is not None and val < prev:
                out.append(f"{name} not monotone at M={row.M}: "
                           f"{val} after {prev}")
            prev = val
    return out


# -- scaling checks -----------------------------------------------------------


@dataclass(frozen=True)
class ScalingCheck:
    fitted_constant: float
    max_factor: float
    allowed_factor: float
    offending_m: int | None

    @property
    def passed(self):
        return self.offending_m is None


def _guarded_log(x):
    return max(math.log(x), 1.0)


def check_depth_bound(rows, d, allowed_factor=2.0):
    """Depth against 1 + C n log(n) with n = M^(1/d), C fit on the first row.

    The log factor is floored at 1 so small budgets cannot zero the model.
    Each row's implied constant is compared against the fitted one.
    """
    if not rows:
        raise ConfigurationError("no rows to check")

    def implied(row):
        n = row.M ** (1.0 / d)
        return max(row.depth - 1.0, 0.0) / (n * _guarded_log(n))

    fitted = implied(rows[0])
    worst = 0.0
    offender = None
    for row in rows:
        c = implied(row)
        factor = math.inf if fitted == 0.0 and c > 0.0 else \
            (c / fitted if fitted > 0.0 else 0.0)
        worst = max(worst, factor)
        if factor > allowed_factor and offender is None:
            offender = row.M
    return ScalingCheck(fitted, worst, allowed_factor, offender)


def check_scaling(m_values, measured, power, allowed_factor=4.0):
    """Measured counter against C M^power, C fit on the smallest budget."""
    if len(m_values) != len(measured) or not m_values:
        raise ConfigurationError("need matching non-empty sequences")
    fitted = measured[0] / m_values[0] ** power
    worst = 0.0
    offender = None
    for m, val in zip(m_values, measured):
        factor = val / (fitted * m ** power)
        worst = max(worst, factor)
        if (factor > allowed_factor or factor < 1.0 / allowed_factor) \
                and offender is None:
            offender = m
    return ScalingCheck(fitted, worst, allowed_factor, offender)


def fit_log_slope(m_values, errors):
    """Least-squares slope of ln(err / M) against M."""
    m = np.asarray(m_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if np.any(e <= 0.0):
        raise ConfigurationError("errors must be positive to take logs")
    return float(np.polyfit(m, np.log(e / m), 1)[0])


def check_first_layer_count(net, index_set=None):
    """First shared layer must hold exactly two units per degree unit.

    Returns the common count; mismatch between the stored metadata, the
    layer itself, or the index set raises VerificationError.
    """
    meta = net.metadata.get("sum_degrees")
    if meta is None:
        raise ConfigurationError(
            "network carries no sum_degrees metadata; was it assembled "
            "by expansion_network?")
    expected = 2 * int(meta)
    if index_set is not None:
        from_set = 2 * sum(sum(nu) for nu in index_set.indices)
        if from_set != expected:
            raise VerificationError(
                f"index set implies {from_set} first-layer weights, "
                f"metadata says {expected}")
    first = net.layers[0]
    if first.nonzero_weights != expected or first.units != expected:
        raise VerificationError(
            f"first layer has {first.units} units / "
            f"{first.nonzero_weights} weights, expected {expected} of each")
    return expected

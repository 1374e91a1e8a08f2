"""Study rows, report files, and the scaling checks."""

import csv
import json
import math

import pytest

from qopnet import multiindex as mi
from qopnet import orthopoly as op
from qopnet import verify
from qopnet.errors import ConfigurationError, ResourceCapError
from qopnet.sampling import SamplerSpec


@pytest.fixture(scope="module")
def small_study():
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    return verify.convergence_study(b, fam, [2, 4, 8], pvol=1.0, seed=7,
                                    coeff_cutoff=40.0)


def test_study_rows_sorted_and_complete(small_study):
    assert [r.M for r in small_study.rows] == [2, 4, 8]
    for row in small_study.rows:
        assert row.sup_error_uQ_uNN <= row.bound_rhs
        assert row.total_bound == row.sup_error_uQ_uNN + row.tail_bound_u_uQ
        assert row.complexity == row.units * 2 + row.nonzero_weights
        assert row.wall_time >= 0.0


def test_study_bound_rhs_formula(small_study):
    # d=1, unit volume: a-priori bound is M exp(-2M)
    for row in small_study.rows:
        assert row.bound_rhs == pytest.approx(row.M * math.exp(-2.0 * row.M),
                                              rel=1e-12)


def test_study_row_lookup(small_study):
    assert small_study.row_for(4).M == 4
    with pytest.raises(KeyError):
        small_study.row_for(5)


def test_csv_has_exact_column_order(tmp_path, small_study):
    path = tmp_path / "study.csv"
    small_study.write_csv(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == list(verify.CSV_COLUMNS)
    assert len(body) == 3
    for rec in body:
        assert rec[0] in {"2", "4", "8"}          # integer columns bare
        assert "e" in rec[2] and len(rec[2]) == 23  # %.17e floats


def test_csv_reproducible_modulo_wall_time(tmp_path):
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    kw = dict(pvol=1.0, seed=7, coeff_cutoff=40.0)
    a = verify.convergence_study(b, fam, [2, 4], **kw)
    bb = verify.convergence_study(b, fam, [2, 4], **kw)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    bb.write_csv(pb)
    wall = verify.CSV_COLUMNS.index("wall_time")
    for la, lb in zip(pa.read_text().splitlines(),
                      pb.read_text().splitlines()):
        assert la.split(",")[:wall] == lb.split(",")[:wall]


def test_sidecar_echoes_configuration(tmp_path, small_study):
    path = tmp_path / "study.csv"
    small_study.write(path)
    side = json.loads((tmp_path / "study.csv.json").read_text())
    echo = side["config_echo"]
    assert echo["seed"] == 7
    assert echo["pvol"] == 1.0
    assert echo["bound"]["kind"] == "isotropic"
    assert echo["sampler"] == {"kind": "grid", "n": 1025, "seed": 0}
    assert side["columns"] == list(verify.CSV_COLUMNS)
    assert len(side["rows"]) == 3
    assert "generated_at" in side


def test_study_refuses_high_dimension():
    with pytest.raises(ResourceCapError):
        verify.convergence_study(mi.isotropic_bound(4), op.shifted_legendre(),
                                 [4])


def test_study_refuses_oversized_budget():
    with pytest.raises(ResourceCapError):
        verify.convergence_study(mi.isotropic_bound(2), op.shifted_legendre(),
                                 [300])


def test_study_rejects_empty_budgets():
    with pytest.raises(ConfigurationError):
        verify.convergence_study(mi.isotropic_bound(1), op.shifted_legendre(),
                                 [])


def test_study_returns_networks_on_request():
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    rep, nets = verify.convergence_study(b, fam, [2, 4], pvol=1.0, seed=7,
                                         coeff_cutoff=40.0,
                                         return_networks=True)
    assert sorted(nets) == [2, 4]
    assert nets[4].metadata["sum_degrees"] == 6


def test_study_uses_dd_when_budgets_vanish():
    # M=16 at d=1 pushes budgets below float64 resolution
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    sampler = SamplerSpec("grid", 129)
    rep = verify.convergence_study(b, fam, [16], pvol=1.0, seed=7,
                                   coeff_cutoff=40.0, sampler=sampler)
    row = rep.rows[0]
    assert 0.0 < row.sup_error_uQ_uNN <= row.bound_rhs
    assert row.bound_rhs < 1e-12


def test_sidecar_reports_each_row_precision(tmp_path):
    # M=2 stays in float64; M=16 budgets fall below float64 resolution
    rep = verify.convergence_study(mi.isotropic_bound(1),
                                   op.shifted_legendre(), [2, 16], pvol=1.0,
                                   seed=7, coeff_cutoff=40.0,
                                   sampler=SamplerSpec("grid", 129))
    assert [row.precision for row in rep.rows] == ["float64", "dd"]
    path = tmp_path / "study.csv"
    rep.write(path)
    side = json.loads((tmp_path / "study.csv.json").read_text())
    assert [row["precision"] for row in side["rows"]] == ["float64", "dd"]
    assert side["config_echo"]["precision"] == "auto"
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == list(verify.CSV_COLUMNS)
    assert "precision" not in header


@pytest.mark.parametrize("d,m,seed", [(2, 3, s) for s in range(6)]
                         + [(3, 4, 0)])
def test_study_exact_rows_pass_link_three(d, m, seed):
    # every live index has degree 1, so the subnetworks are exact and the
    # triangle total is 0; the float64 rounding of the output sum and of
    # the reference sum must not trip link 3
    rep = verify.convergence_study(mi.isotropic_bound(d),
                                   op.shifted_legendre(), [m], seed=seed)
    assert rep.rows[0].sup_error_uQ_uNN <= 1e-15


# -- scaling checks -----------------------------------------------------------


def rows_from(ms, depths, complexities=None):
    complexities = complexities or [10 * m * m for m in ms]
    return [verify.StudyRow(M=m, J=0.0, pvol=1.0, sup_error_uQ_uNN=0.0,
                            tail_bound_u_uQ=0.0, total_bound=0.0,
                            complexity=c, units=1, nonzero_weights=1,
                            depth=dep, bound_rhs=1.0, wall_time=0.0)
            for m, dep, c in zip(ms, depths, complexities)]


def test_depth_check_accepts_model_growth():
    d = 2
    depths = [1 + round(3 * m ** 0.5 * max(math.log(m ** 0.5), 1.0))
              for m in (4, 16, 64)]
    chk = verify.check_depth_bound(rows_from((4, 16, 64), depths), d)
    assert chk.passed
    assert chk.max_factor <= 2.0


def test_depth_check_flags_runaway_growth():
    chk = verify.check_depth_bound(rows_from((4, 16, 64), (5, 40, 400)), 2)
    assert not chk.passed
    assert chk.offending_m in (16, 64)


def test_depth_check_trivial_first_row():
    # depth 1 at the first budget fits C = 0; any later growth is flagged
    chk = verify.check_depth_bound(rows_from((1, 4), (1, 9)), 1)
    assert not chk.passed and chk.max_factor == math.inf


def test_scaling_check_two_sided_band():
    chk = verify.check_scaling([2, 4, 8], [8.0, 32.0, 128.0], 2.0)
    assert chk.passed and chk.max_factor == pytest.approx(1.0)
    chk = verify.check_scaling([2, 4, 8], [8.0, 32.0, 600.0], 2.0)
    assert not chk.passed and chk.offending_m == 8


def test_fit_log_slope_recovers_planted_rate():
    ms = [4, 8, 16, 32]
    errs = [m * math.exp(-1.7 * m) for m in ms]
    assert verify.fit_log_slope(ms, errs) == pytest.approx(-1.7, abs=1e-9)


def test_fit_log_slope_rejects_zero_errors():
    with pytest.raises(ConfigurationError):
        verify.fit_log_slope([2, 4], [0.0, 1e-3])


def test_first_layer_count_matches_metadata():
    b = mi.isotropic_bound(1)
    fam = op.shifted_legendre()
    _, nets = verify.convergence_study(b, fam, [4], pvol=1.0, seed=7,
                                       coeff_cutoff=40.0,
                                       return_networks=True)
    net = nets[4]
    lam = mi.enumerate_quasi_optimal(b, 4)
    assert verify.check_first_layer_count(net, lam) == 2 * 6


def test_first_layer_count_needs_metadata():
    from qopnet import netcore as nc
    with pytest.raises(ConfigurationError):
        verify.check_first_layer_count(nc.identity_network(1))

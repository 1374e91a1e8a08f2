"""Point set generation: shapes, determinism, defaults."""

import json

import numpy as np
import pytest

from qopnet.errors import ConfigurationError
from qopnet.sampling import SamplerSpec, default_sampler


def test_grid_covers_unit_cube_endpoints():
    pts = SamplerSpec("grid", 5).points(2)
    assert pts.shape == (25, 2)
    assert pts.min() == 0.0 and pts.max() == 1.0
    assert [0.0, 0.0] in pts.tolist() and [1.0, 1.0] in pts.tolist()


def test_grid_1d_resolution():
    pts = SamplerSpec("grid", 1025).points(1)
    assert pts.shape == (1025, 1)
    np.testing.assert_array_equal(pts[:, 0], np.linspace(0.0, 1.0, 1025))


def test_grid_refuses_blowup():
    with pytest.raises(ConfigurationError):
        SamplerSpec("grid", 4096).points(3)   # 4096^3 points


def test_halton_is_seed_deterministic():
    a = SamplerSpec("halton", 64, seed=5).points(3)
    b = SamplerSpec("halton", 64, seed=5).points(3)
    np.testing.assert_array_equal(a, b)
    c = SamplerSpec("halton", 64, seed=6).points(3)
    assert not np.array_equal(a, c)


def test_halton_stays_inside_unit_cube():
    pts = SamplerSpec("halton", 500, seed=0).points(3)
    assert pts.shape == (500, 3)
    assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_sampler_spec_validation():
    with pytest.raises(ConfigurationError):
        SamplerSpec("sobol", 10)
    with pytest.raises(ConfigurationError):
        SamplerSpec("grid", 0)


def test_default_sampler_choices():
    assert default_sampler(1).to_json_dict() == {"kind": "grid", "n": 1025,
                                                 "seed": 0}
    assert default_sampler(2).to_json_dict() == {"kind": "grid", "n": 101,
                                                 "seed": 0}
    d3 = default_sampler(3, seed=9)
    assert d3.kind == "halton" and d3.n == 100_000 and d3.seed == 9


def test_round_trip():
    spec = SamplerSpec("halton", 32, seed=4)
    doc = json.loads(json.dumps(spec.to_json_dict()))
    assert doc == {"kind": "halton", "n": 32, "seed": 4}
    assert SamplerSpec(**doc) == spec

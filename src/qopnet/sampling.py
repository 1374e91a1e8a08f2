"""Deterministic point samplers for sup-norm measurement on [0,1]^d.

Low dimensions use tensor grids: 1025 = 2^10 + 1 points in d=1 and 101
points per axis in d=2.  Higher dimensions switch to a seeded Halton
sequence; the seed is an explicit field, never the wall clock.

A sampled sup is evidence, not proof (a lower bound on the true sup): in a
network the gadgets see root differences, so no grid hits all breakpoints.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from qopnet.errors import ConfigurationError

_GRID_POINT_CAP = 4_000_000


@dataclass(frozen=True)
class SamplerSpec:
    kind: str          # "grid" (n points per axis) or "halton" (n total)
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("grid", "halton"):
            raise ConfigurationError(f"unknown sampler kind {self.kind!r}")
        if self.n < 2:
            raise ConfigurationError(f"sampler needs n >= 2, got {self.n}")

    def points(self, d):
        """The point set as an (npts, d) array; deterministic."""
        if d < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {d}")
        if self.kind == "grid":
            if self.n ** d > _GRID_POINT_CAP:
                raise ConfigurationError(
                    f"grid of {self.n}^{d} points exceeds the sampler cap; "
                    f"use a halton sampler for d={d}")
            axis = np.linspace(0.0, 1.0, self.n)
            mesh = np.meshgrid(*([axis] * d), indexing="ij")
            return np.stack([m.ravel() for m in mesh], axis=1)
        sampler = qmc.Halton(d=d, scramble=True, seed=self.seed)
        return sampler.random(self.n)

    def to_json_dict(self):
        return {"kind": self.kind, "n": self.n, "seed": self.seed}


def default_sampler(d, seed=0):
    """Grid for d <= 2 (>= 101 points per axis), Halton for d >= 3."""
    if d == 1:
        return SamplerSpec("grid", 1025, seed)
    if d == 2:
        return SamplerSpec("grid", 101, seed)
    return SamplerSpec("halton", 100_000, seed)

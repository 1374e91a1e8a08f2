"""Shared test fixtures."""

import numpy as np
import pytest

from qopnet import ddfloat as dd
from qopnet import netcore as nc


def _rank_group_forward_dd(layer, x_hi, x_lo):
    """The rank-group double-double layer pass that the sorted-prefix pass
    replaced: for each rank k it gathers the rows with more than k stored
    entries, adds their k-th products, and scatters the rows back."""
    indptr = layer.weights.indptr
    counts = np.diff(indptr)
    mant, expo = np.frexp(layer.weights.data)
    exact = bool(np.all((np.abs(mant) == 0.5) & (np.abs(expo) <= 100)))
    if exact:
        mag = np.abs(x_hi)
        exact = bool(np.all((mag == 0.0) | ((mag >= nc._EXACT_MIN)
                                            & (mag <= nc._EXACT_MAX))))
    npts = x_hi.shape[1]
    acc_hi = np.repeat(layer.bias[:, None], npts, axis=1)
    acc_lo = np.zeros_like(acc_hi)
    for k in range(int(counts.max()) if counts.size else 0):
        rows = np.nonzero(counts > k)[0]
        at = indptr[rows] + k
        cols = layer.weights.indices[at]
        w = layer.weights.data[at][:, None]
        if exact:
            t_hi, t_lo = dd.quick_two_sum(x_hi[cols] * w,
                                          0.0 + x_lo[cols] * w)
        else:
            t_hi, t_lo = dd.mul_f64(x_hi[cols], x_lo[cols], w)
        acc_hi[rows], acc_lo[rows] = dd.add_dd(
            acc_hi[rows], acc_lo[rows], t_hi, t_lo)
    if layer.relu_rows.any():
        idx = np.nonzero(layer.relu_rows)[0]
        acc_hi[idx], acc_lo[idx] = dd.relu_dd(acc_hi[idx], acc_lo[idx])
    return acc_hi, acc_lo


@pytest.fixture
def rank_group_forward_dd():
    """Reference for Layer.forward_dd, kept bit for bit from the old path."""
    return _rank_group_forward_dd

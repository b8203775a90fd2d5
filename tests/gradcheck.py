"""Test helpers: finite-difference validation of every differentiable
operation, and the scalar sum the checked losses reduce with.

The check compares tape gradients against central differences at 64-bit.
The reported figure for a leaf is a normalized max error::

    err = max_i |analytic_i - numeric_i| / max(max|analytic|, max|numeric|, 1e-12)

which stays meaningful when individual entries are near zero.
"""

from __future__ import annotations

import numpy as np

from pfnet.network import ParameterSet
from pfnet.tensor import Tape, Tensor, _accumulate, _maybe_record, reverse_accumulate

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


def sum_all(x):
    """Reduce to a 0-d scalar (fixed ascending-index accumulation)."""
    out = Tensor(x.data.sum(), _op="sum")
    x_slot, shape, dtype = x.slot, x.shape, x.dtype

    def backward(g):
        _accumulate(x_slot, np.full(shape, g, dtype=dtype))

    return _maybe_record(out, (x,), backward)


def float64_params(params):
    """A copy of ``params`` whose leaves are float64, for finite differences."""
    return ParameterSet({name: Tensor(t.data.astype(np.float64), requires_grad=True) for name, t in params.items()})


def central_difference(build_loss, leaf, index, h=DEFAULT_STEP):
    """d(loss)/d(leaf[index]) by central differences, perturbing in place."""
    original = leaf.data[index]
    leaf.data[index] = original + h
    hi = float(build_loss().data)
    leaf.data[index] = original - h
    lo = float(build_loss().data)
    leaf.data[index] = original
    return (hi - lo) / (2.0 * h)


def _probe_indices(shape, max_probes, rng):
    total = int(np.prod(shape)) if shape else 1
    if max_probes is None or total <= max_probes:
        flat = np.arange(total)
    else:
        flat = rng.choice(total, size=max_probes, replace=False)
        flat.sort()
    if not shape:
        return [()]
    return [np.unravel_index(i, shape) for i in flat]


def check_gradients(build_loss, leaves, h=DEFAULT_STEP, max_probes=None, seed=0):
    """Normalized max error between tape and finite-difference gradients.

    ``build_loss`` must rebuild the scalar loss from the current leaf data
    each call (it runs 2 extra times per probed entry).  Returns the worst
    error across all ``leaves``.
    """
    for leaf in leaves:
        leaf.requires_grad = True
        leaf.grad = None
    with Tape() as tape:
        loss = build_loss()
    reverse_accumulate(tape, loss)
    analytic = [leaf.grad.copy() for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None

    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for leaf, grad in zip(leaves, analytic):
        indices = _probe_indices(leaf.shape, max_probes, rng)
        probed_analytic = np.array([grad[idx] for idx in indices])
        probed_numeric = np.array(
            [central_difference(build_loss, leaf, idx, h) for idx in indices]
        )
        denom = max(
            np.abs(grad).max(initial=0.0),
            np.abs(probed_numeric).max(initial=0.0),
            1e-12,
        )
        err = np.abs(probed_analytic - probed_numeric).max(initial=0.0) / denom
        worst = max(worst, float(err))
    return worst

"""In-place numpy kernels mirroring :mod:`repro.tensor.ops` forward math.

Each function writes its result into caller-provided, preallocated
buffers and returns ``out``; none of them allocate.  The op sequences
deliberately mirror the differentiable versions (same clipping, same
stable-sigmoid branch structure, same reduction order) so a compiled
plan reproduces the eager forward to floating-point rounding.

Scratch buffers are owned by the plan's :class:`~repro.serve.arena.BufferArena`
and passed in explicitly — a kernel never knows whether it is running
the first or the millionth request.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid_",
    "sigmoid_fast_",
    "tanh_",
    "relu_",
    "leaky_relu_",
    "softmax_",
]


def sigmoid_(x, out, scratch, mask):
    """Stable logistic sigmoid: mirrors ``repro.tensor.ops.sigmoid``.

    ``scratch`` is a float buffer shaped like ``x``; ``mask`` is a bool
    buffer shaped like ``x``.  ``x`` may alias ``out`` but not
    ``scratch``/``mask``.
    """
    # minimum+maximum == clip(-500, 500) bit for bit, without the
    # np.clip dispatch wrapper (measurable per-call cost in tight
    # recurrent loops)
    np.minimum(x, 500.0, out=scratch)
    np.maximum(scratch, -500.0, out=scratch)
    np.greater_equal(scratch, 0.0, out=mask)
    np.abs(scratch, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    scratch += 1.0
    np.reciprocal(scratch, out=scratch)      # 1 / (1 + e^-|x|)
    np.subtract(1.0, scratch, out=out)       # negative-branch value
    np.copyto(out, scratch, where=mask)      # positive branch where x >= 0
    return out


def sigmoid_fast_(x, out):
    """Clipped naive sigmoid: ``1 / (1 + e^-x)`` after clip to ±500.

    The clip keeps ``e^-x`` finite in float64 (``e^500 < inf``), so the
    branchless form never overflows; it agrees with :func:`sigmoid_` to
    rounding but runs six ufuncs instead of ten.  Used by the GRU
    recurrence that serve and train plans share, where the per-call cost
    dominates; plans are verified against the eager forward to
    floating-point tolerance, not bit for bit.  ``x`` may alias ``out``.
    """
    np.minimum(x, 500.0, out=out)
    np.maximum(out, -500.0, out=out)
    np.negative(out, out)
    np.exp(out, out)
    np.add(out, 1.0, out)
    np.reciprocal(out, out)
    return out


def tanh_(x, out):
    """Hyperbolic tangent."""
    return np.tanh(x, out=out)


def relu_(x, out):
    """Rectified linear unit (``max(x, 0)``)."""
    return np.maximum(x, 0.0, out=out)


def leaky_relu_(x, out, mask, negative_slope=0.01):
    """Leaky ReLU; ``mask`` is a bool buffer shaped like ``x``."""
    np.greater(x, 0.0, out=mask)
    np.multiply(x, negative_slope, out=out)
    np.copyto(out, x, where=mask)
    return out


def softmax_(x, out, red, axis=-1):
    """Shift-stabilised softmax along ``axis``.

    ``red`` is the keepdims reduction buffer (``x`` with ``axis``
    collapsed to length 1).  Mirrors ``repro.tensor.ops.softmax``:
    subtract the max, exponentiate, normalise.
    """
    np.max(x, axis=axis, keepdims=True, out=red)
    np.subtract(x, red, out=out)
    np.exp(out, out=out)
    np.sum(out, axis=axis, keepdims=True, out=red)
    np.divide(out, red, out=out)
    return out

"""Dense tensors plus a reverse-mode differentiation tape.

A :class:`Tensor` is an immutable dense value array (float32 for training,
float64 for gradient checking).  Operations executed while a :class:`Tape`
is active are recorded in execution order; :func:`reverse_accumulate`
replays the adjoint rules in reverse, visiting every recorded operation
exactly once and accumulating gradients additively across fan-out.

Broadcasting is deliberately restricted to the two patterns the network
needs: a per-channel vector ``[1, C, 1, 1]`` against a feature map
``[N, C, H, W]``, and a single-channel spatial map ``[N, 1, H, W]``
broadcast over channels.  Anything else is rejected.
"""

from __future__ import annotations

import threading

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)

_state = threading.local()


class TapeError(RuntimeError):
    """Misuse of the computation record (nesting, reuse, bad loss)."""


def _active_tape():
    return getattr(_state, "tape", None)


class Tensor:
    """Dense N-d value array with shape fixed at creation.

    ``data`` is row-major. Values must be finite after every forward
    operation; a NaN/Inf result raises immediately instead of propagating.
    ``grad`` is backward-pass bookkeeping and not part of the value.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, _op=None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            where = "" if _op is None else f" (output of {_op})"
            raise FloatingPointError(f"non-finite tensor values{where}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed operations (one graph, one thread).

    Use as a context manager; operations executed inside record an adjoint
    rule whenever any operand requires gradients.  A tape can be
    backpropagated once, via :func:`reverse_accumulate`.
    """

    def __init__(self):
        self.entries = []          # (output Tensor, backward callable)
        self.consumed = False
        self._produced = set()     # id() of tensors produced on this tape
        self._leaves = {}          # id() -> leaf Tensor with requires_grad

    def __enter__(self):
        if _active_tape() is not None:
            raise TapeError("a tape is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        return False

    def record(self, out, inputs, backward):
        out.requires_grad = True
        for t in inputs:
            if t.requires_grad and id(t) not in self._produced:
                self._leaves[id(t)] = t
        self._produced.add(id(out))
        self.entries.append((out, backward))

    def owns(self, t):
        return id(t) in self._produced


def _accumulate(t, g):
    """Add a gradient contribution to ``t`` (no in-place mutation)."""
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def reverse_accumulate(tape, loss):
    """Backpropagate ``loss`` through ``tape``.

    Fills ``.grad`` on every leaf that requires gradients; leaves the loss
    does not reach get an explicit zero gradient.  The tape is consumed.
    """
    if tape.consumed:
        raise TapeError("computation record already consumed")
    if loss.ndim != 0:
        raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
    if not tape.owns(loss):
        raise TapeError("loss was not produced on this tape")
    tape.consumed = True
    loss.grad = np.ones((), dtype=loss.dtype)
    for out, backward in reversed(tape.entries):
        if out.grad is not None:
            backward(out.grad)
    for leaf in tape._leaves.values():
        if leaf.grad is None:
            leaf.grad = np.zeros(leaf.shape, dtype=leaf.dtype)
    return {id(t): t.grad for t in tape._leaves.values()}


def _maybe_record(out, inputs, backward):
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape.record(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# creation


def create(shape, fill=0.0, seed=None, requires_grad=False, dtype=np.float64):
    """Create a tensor of ``shape`` filled with a constant or seeded noise.

    With ``seed`` given, values are uniform in [-1, 1] from a fixed PCG64
    stream, so (seed, shape) determines the bytes exactly.
    """
    shape = tuple(int(d) for d in shape)
    if any(d < 1 for d in shape):
        raise ValueError(f"dimensions must be >= 1, got {shape}")
    if seed is not None:
        data = np.random.Generator(np.random.PCG64(seed)).uniform(-1.0, 1.0, shape)
        data = data.astype(dtype)
    else:
        data = np.full(shape, float(fill), dtype=dtype)
    return Tensor(data, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# elementwise


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out

_UNARY_FORWARD = {
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": _sigmoid,
    "exp": np.exp,
    "neg": np.negative,
}


def elementwise_unary(kind, x):
    if kind not in _UNARY_FORWARD:
        raise ValueError(f"unknown unary kind {kind!r}")
    with np.errstate(over="ignore"):  # overflow surfaces as the finiteness error
        out_data = _UNARY_FORWARD[kind](x.data)
    out = Tensor(out_data, _op=kind)

    def backward(g):
        if kind == "relu":
            _accumulate(x, g * (x.data > 0))
        elif kind == "sigmoid":
            _accumulate(x, g * out_data * (1.0 - out_data))
        elif kind == "exp":
            _accumulate(x, g * out_data)
        else:  # neg
            _accumulate(x, -g)

    return _maybe_record(out, (x,), backward)


def relu(x):
    return elementwise_unary("relu", x)


def sigmoid(x):
    return elementwise_unary("sigmoid", x)


def _broadcast_axes(a_shape, b_shape):
    """Return reduction axes for gradients of ``b`` under the allowed patterns."""
    if a_shape == b_shape:
        return None
    if len(a_shape) == 4 and len(b_shape) == 4:
        n, c, h, w = a_shape
        if b_shape == (1, c, 1, 1):
            return (0, 2, 3)
        if b_shape == (n, 1, h, w):
            return (1,)
    raise ValueError(f"incompatible shapes for broadcast: {a_shape} vs {b_shape}")


def elementwise_binary(kind, a, b):
    if kind not in ("add", "sub", "mul"):
        raise ValueError(f"unknown binary kind {kind!r}")
    axes = _broadcast_axes(a.shape, b.shape)
    if kind == "add":
        out_data = a.data + b.data
    elif kind == "sub":
        out_data = a.data - b.data
    else:
        out_data = a.data * b.data
    out = Tensor(out_data, _op=kind)

    def reduce_b(g):
        return g if axes is None else g.sum(axis=axes, keepdims=True)

    def backward(g):
        if kind == "add":
            _accumulate(a, g)
            _accumulate(b, reduce_b(g))
        elif kind == "sub":
            _accumulate(a, g)
            _accumulate(b, -reduce_b(g))
        else:
            _accumulate(a, g * b.data)
            _accumulate(b, reduce_b(g * a.data))

    return _maybe_record(out, (a, b), backward)


def add(a, b):
    return elementwise_binary("add", a, b)


def sub(a, b):
    return elementwise_binary("sub", a, b)


def mul(a, b):
    return elementwise_binary("mul", a, b)


def scale(x, c):
    """Multiply by a plain python scalar constant."""
    c = float(c)
    out = Tensor(x.data * c, _op="scale")

    def backward(g):
        _accumulate(x, g * c)

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def batched_matmul(a, b):
    """Stacked matrix product [B,m,k] x [B,k,n] -> [B,m,n]."""
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"bad stacked matmul shapes: {a.shape} x {b.shape}")
    out = Tensor(np.matmul(a.data, b.data), _op="batched_matmul")

    def backward(g):
        _accumulate(a, np.matmul(g, b.data.swapaxes(1, 2)))
        _accumulate(b, np.matmul(a.data.swapaxes(1, 2), g))

    return _maybe_record(out, (a, b), backward)


def swap_last_axes(x):
    """Transpose the trailing two axes."""
    if x.ndim < 2:
        raise ValueError("need at least 2 dimensions")
    out = Tensor(x.data.swapaxes(-1, -2), _op="swap_last_axes")

    def backward(g):
        _accumulate(x, g.swapaxes(-1, -2))

    return _maybe_record(out, (x,), backward)


def _softmax_lastdim_data(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_lastdim(x):
    """Softmax over the last axis with max-subtraction for stability."""
    s = _softmax_lastdim_data(x.data)
    out = Tensor(s, _op="softmax")

    def backward(g):
        _accumulate(x, (g - (g * s).sum(axis=-1, keepdims=True)) * s)

    return _maybe_record(out, (x,), backward)


def concat_channels(xs):
    """Stack 4-d tensors along the channel axis, in argument order."""
    if not xs:
        raise ValueError("empty concat")
    n, _, h, w = xs[0].shape
    for t in xs:
        if t.ndim != 4 or t.shape[0] != n or t.shape[2] != h or t.shape[3] != w:
            raise ValueError("concat_channels operands must agree on N, H, W")
    out = Tensor(np.concatenate([t.data for t in xs], axis=1), _op="concat")
    splits = np.cumsum([t.shape[1] for t in xs])[:-1]

    def backward(g):
        for t, piece in zip(xs, np.split(g, splits, axis=1)):
            _accumulate(t, piece)

    return _maybe_record(out, tuple(xs), backward)


def channel_slice(x, start, stop):
    """Channels ``[start, stop)`` of axis 1."""
    start, stop = int(start), int(stop)
    if x.ndim < 2 or not 0 <= start < stop <= x.shape[1]:
        raise ValueError(f"channel range [{start}, {stop}) outside shape {x.shape}")
    out = Tensor(x.data[:, start:stop], _op="channel_slice")

    def backward(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        gx[:, start:stop] = g
        _accumulate(x, gx)

    return _maybe_record(out, (x,), backward)


def sum_all(x):
    """Reduce to a 0-d scalar (fixed ascending-index accumulation)."""
    out = Tensor(x.data.sum(), _op="sum")

    def backward(g):
        _accumulate(x, np.full(x.shape, g, dtype=x.dtype))

    return _maybe_record(out, (x,), backward)

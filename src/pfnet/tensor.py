"""Dense tensors plus a reverse-mode differentiation tape.

A :class:`Tensor` is an immutable dense value array (float32 for training,
float64 for gradient checking) plus a :class:`GradSlot`, the small object
that holds its gradient and whether it wants one.  Operations executed
while a :class:`Tape` is active record their output's slot and a backward
closure; :func:`reverse_accumulate` replays the closures in reverse,
visiting every recorded operation exactly once and accumulating gradients
additively across fan-out.  An intermediate gradient is cleared from its
slot as its adjoint consumes it, so it lives only until every consumer of
its tensor has run; after the pass only leaves hold a ``.grad``.

The tape never holds a tensor.  Each backward closure keeps the slots of
its inputs and only the arrays its adjoint reads (``mul`` its operands, a
conv its input and the weight array it was given), so an intermediate
value that no adjoint reads is freed as soon as the forward drops it.
``relu`` keeps its ``out > 0`` mask packed to one bit per element
(``np.packbits``, the encoding of Gist, Jain et al., ISCA 2018) and
unpacks it in backward; it builds the mask only when it records.  A copy
that is cheap to remake from a kept array (a conv's padded, channel-major
input or its transposed weight, ``ce_loss``'s labels from its mask) is
rebuilt in backward, not kept.

So is an activation that one cheap pass or GEMM remakes from what the
tape keeps anyway.  A recorded ``channel_norm`` or 1x1 ``conv2d`` puts a
remake rule in its output's slot: a zero-argument function that rebuilds
the array bit for bit, from the norm's kept ``xhat`` or the conv's kept
input.  A ``relu`` of an input with a rule gets a rule of its own.  A
leaf may carry a rule too: the training step's input image remakes itself
by stacking the batch's crops again.  A closure that reads an input's
array (``mul``, the convs) keeps the zero-argument reader ``_kept(x)``,
the rule if there is one, so that the array itself is freed with the
forward, and calls it in backward.

A rule references only arrays that the op or the caller keeps anyway,
unchanged until backward: a norm's ``xhat``, a conv's reader of its input,
the caller's crops.  So
``add``, ``sub``, ``concat_channels`` and resize outputs get no rule; one
would pin inputs that no reader keeps.

A tape-free kernel call (:func:`_recording` is false) takes its large
temporaries from the thread's workspace (:func:`_scratch`): one byte
buffer, kept beside the active tape, that grows to the largest size a
call asks for and keeps it between calls.  A tape-free forward frees
every array it makes, so without it the allocator hands the freed pages
back and the next call faults them in again; a recorded forward keeps its
activations on the tape, so its heap stays large and reuses freed memory.
A recorded call allocates fresh arrays, and entering a :class:`Tape`
drops the workspace, so training never holds it.  No view of the
workspace leaves a kernel call: outputs and gradients are fresh arrays.

Broadcasting is deliberately restricted to the one pattern the network
needs: a single-channel spatial map ``[N, 1, H, W]`` broadcast over the
channels of a feature map ``[N, C, H, W]``.  Anything else is rejected.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)

_state = threading.local()


class TapeError(RuntimeError):
    """Misuse of the computation record (nesting, reuse, bad loss)."""


def _active_tape():
    return getattr(_state, "tape", None)


def _all_finite(arr):
    """Whether every value of a float array is finite.

    A C-contiguous array is first summed as squares by one BLAS ``vdot``,
    which reads it once, makes no temporary and sets no floating-point
    warning: every term is at least 0 or NaN, so no cancellation hides a
    NaN or an infinity, and a finite sum proves every value finite.  Only
    a non-finite sum, which finite values whose squares overflow also
    give, falls through to the exact elementwise check.
    """
    if arr.flags.c_contiguous and math.isfinite(np.vdot(arr, arr)):
        return True
    return bool(np.isfinite(arr).all())


class GradSlot:
    """Backward-pass bookkeeping of one tensor: its gradient, and whether
    it wants one.  Tapes and backward closures hold slots, not tensors.

    The slot of a recorded output holds its gradient only during the
    backward pass, until its adjoint takes it; a leaf's slot keeps it.
    ``remake``, if set, rebuilds the tensor's array from arrays the tape
    or the caller keeps (see the module docstring)."""

    __slots__ = ("grad", "requires_grad", "remake")

    def __init__(self, requires_grad):
        self.grad = None
        self.requires_grad = requires_grad
        self.remake = None


class Tensor:
    """Dense N-d value array with shape fixed at creation.

    ``data`` is row-major. Values must be finite after every forward
    operation; a NaN/Inf result raises immediately instead of propagating.
    ``grad`` and ``requires_grad`` live in ``slot`` and are not part of
    the value.
    """

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad=False, _op=None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            raise ValueError(f"tensor dtype {arr.dtype} is not float32 or float64")
        if not _all_finite(arr):
            where = "" if _op is None else f" (output of {_op})"
            raise FloatingPointError(f"non-finite tensor values{where}")
        self.data = arr
        self.slot = GradSlot(bool(requires_grad))

    @property
    def grad(self):
        return self.slot.grad

    @grad.setter
    def grad(self, value):
        self.slot.grad = value

    @property
    def requires_grad(self):
        return self.slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value):
        self.slot.requires_grad = bool(value)

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
        self.entries = []          # (output GradSlot, backward callable)
        self.consumed = False
        self._produced = set()     # slots of the outputs recorded here
        self._leaves = {}          # slot -> (shape, dtype) of each leaf input

    def __enter__(self):
        if _active_tape() is not None:
            raise TapeError("a tape is already active on this thread")
        _state.tape = self
        _state.workspace = None
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        return False

    def record(self, out, inputs, backward):
        out.slot.requires_grad = True
        for t in inputs:
            slot = t.slot
            if slot.requires_grad and slot not in self._produced:
                self._leaves[slot] = (t.shape, t.dtype)
        self._produced.add(out.slot)
        self.entries.append((out.slot, backward))

    def owns(self, t):
        return t.slot in self._produced


def _accumulate(slot, g):
    """Add a gradient contribution to an input's slot (no in-place mutation).

    Backward closures call this with the slots they captured in the
    forward; they hold no tensor, only the arrays their adjoint reads.
    """
    if not slot.requires_grad:
        return
    slot.grad = g if slot.grad is None else slot.grad + g


def reverse_accumulate(tape, loss):
    """Backpropagate ``loss`` through ``tape``.

    Fills ``.grad`` on every leaf that requires gradients; leaves the loss
    does not reach get an explicit zero gradient.  Each recorded output's
    gradient is taken out of its slot just before its adjoint runs, so it
    is freed once that adjoint drops it and every produced tensor, the
    loss included, ends with ``.grad`` None.  The tape's entries stay until
    the tape is dropped.  The tape is consumed.
    """
    if tape.consumed:
        raise TapeError("computation record already consumed")
    if loss.ndim != 0:
        raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
    if not tape.owns(loss):
        raise TapeError("loss was not produced on this tape")
    tape.consumed = True
    loss.grad = np.ones((), dtype=loss.dtype)
    for slot, backward in reversed(tape.entries):
        g, slot.grad = slot.grad, None
        if g is not None:
            backward(g)
    for slot, (shape, dtype) in tape._leaves.items():
        if slot.grad is None:
            slot.grad = np.zeros(shape, dtype=dtype)


def _recording(inputs):
    """Whether an op on ``inputs`` records: a tape is active and an input
    wants a gradient."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


_ALIGN = 64  # bytes; each workspace region starts on a cache line


class _Scratch:
    """The numbered regions of one kernel call's temporaries (see
    :func:`_scratch`)."""

    __slots__ = ("regions", "dtype")

    def __init__(self, regions, dtype):
        self.regions = regions
        self.dtype = dtype

    def take(self, i, shape):
        """An uninitialised contiguous array of ``shape`` in region i: a
        view of the workspace, or a fresh array in a recorded call."""
        if self.regions is None:
            return np.empty(shape, self.dtype)
        return self.regions[i][: math.prod(shape)].reshape(shape)

    def zeros(self, i, shape):
        if self.regions is None:
            return np.zeros(shape, self.dtype)
        out = self.take(i, shape)
        out.fill(0)
        return out


@contextmanager
def _scratch(inputs, dtype, sizes):
    """Regions for the temporaries of one kernel call on ``inputs``:
    region i holds ``sizes[i]`` elements of ``dtype``, and a later array
    may take the region of one that is dead.

    A recorded call gets a fresh array from each ``take``, so it allocates
    as it would without the workspace.  A tape-free call gets disjoint
    views of the thread's workspace, grown if it is too small; no view may
    outlive the ``with``.  A second use while one is open raises.
    """
    if _recording(inputs):
        yield _Scratch(None, dtype)
        return
    if getattr(_state, "scratch_open", False):
        raise RuntimeError("the scratch workspace is already in use on this thread")
    itemsize = np.dtype(dtype).itemsize
    ends = list(accumulate(-(-size * itemsize // _ALIGN) * _ALIGN for size in sizes))
    ws = getattr(_state, "workspace", None)
    if ws is None or ws.nbytes < ends[-1] + _ALIGN:
        ws = _state.workspace = np.empty(ends[-1] + _ALIGN, np.uint8)
    base = ws[-ws.ctypes.data % _ALIGN :]
    regions = [base[lo:hi].view(dtype) for lo, hi in zip([0] + ends, ends)]
    _state.scratch_open = True
    try:
        yield _Scratch(regions, dtype)
    finally:
        _state.scratch_open = False


def _maybe_record(out, inputs, backward, remake=None):
    """Record ``backward`` if :func:`_recording`; a recorded output's slot
    then gets the ``remake`` rule."""
    if _recording(inputs):
        _active_tape().record(out, inputs, backward)
        out.slot.remake = remake
    return out


def _kept(x):
    """The zero-argument reader a backward closure keeps for x's array:
    x's remake rule, or else a function returning the array itself."""
    data = x.data
    return x.slot.remake or (lambda: data)


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
}


def elementwise_unary(kind, x):
    """relu keeps its ``out > 0`` mask packed to one bit per element, and
    sigmoid its output; a relu of an input with a remake rule remakes its
    output from it.  An op that does not record keeps nothing."""
    if kind not in _UNARY_FORWARD:
        raise ValueError(f"unknown unary kind {kind!r}")
    out_data = _UNARY_FORWARD[kind](x.data)
    out = Tensor(out_data, _op=kind)
    if not _recording((x,)):
        return out
    x_slot, rule, remake = x.slot, x.slot.remake, None
    kept = np.packbits(out_data > 0) if kind == "relu" else out_data
    if kind == "relu" and rule is not None:

        def remake():
            remade = rule()  # a new array, clipped in place
            return np.maximum(remade, 0.0, out=remade)

    def backward(g):
        if kind == "relu":
            mask = np.unpackbits(kept, count=g.size).view(bool).reshape(g.shape)
            _accumulate(x_slot, g * mask)
        else:  # sigmoid
            _accumulate(x_slot, g * kept * (1.0 - kept))

    return _maybe_record(out, (x,), backward, remake)


def relu(x):
    return elementwise_unary("relu", x)


def sigmoid(x):
    return elementwise_unary("sigmoid", x)


def _broadcast_axes(a_shape, b_shape):
    """Return reduction axes for gradients of ``b`` under the allowed pattern."""
    if a_shape == b_shape:
        return None
    if len(a_shape) == 4 and len(b_shape) == 4:
        n, _, h, w = a_shape
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
    a_slot, b_slot = a.slot, b.slot
    # only mul's adjoint reads the operands
    a_kept, b_kept = (_kept(a), _kept(b)) if kind == "mul" else (None, None)

    def reduce_b(g):
        return g if axes is None else g.sum(axis=axes, keepdims=True)

    def backward(g):
        if kind == "add":
            _accumulate(a_slot, g)
            _accumulate(b_slot, reduce_b(g))
        elif kind == "sub":
            _accumulate(a_slot, g)
            _accumulate(b_slot, -reduce_b(g))
        else:
            _accumulate(a_slot, g * b_kept())
            _accumulate(b_slot, reduce_b(g * a_kept()))

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
    x_slot = x.slot

    def backward(g):
        _accumulate(x_slot, g * c)

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def batched_matmul(a, b, transpose_b=False):
    """Stacked matrix product [B,m,k] x [B,k,n] -> [B,m,n]; with
    ``transpose_b`` the second operand is [B,n,k] and enters transposed."""
    k = 2 if transpose_b else 1
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[k]:
        raise ValueError(f"bad stacked matmul shapes: {a.shape} x {b.shape}")
    a_data = a.data
    b_data = b.data.swapaxes(1, 2) if transpose_b else b.data
    out = Tensor(np.matmul(a_data, b_data), _op="batched_matmul")
    a_slot, b_slot = a.slot, b.slot

    def backward(g):
        _accumulate(a_slot, np.matmul(g, b_data.swapaxes(1, 2)))
        gb = np.matmul(a_data.swapaxes(1, 2), g)
        _accumulate(b_slot, gb.swapaxes(1, 2) if transpose_b else gb)

    return _maybe_record(out, (a, b), backward)


def _softmax_lastdim_data(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_lastdim(x):
    """Softmax over the last axis with max-subtraction for stability."""
    s = _softmax_lastdim_data(x.data)
    out = Tensor(s, _op="softmax")
    x_slot = x.slot

    def backward(g):
        _accumulate(x_slot, (g - (g * s).sum(axis=-1, keepdims=True)) * s)

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
    slots = [t.slot for t in xs]

    def backward(g):
        for slot, piece in zip(slots, np.split(g, splits, axis=1)):
            _accumulate(slot, piece)

    return _maybe_record(out, tuple(xs), backward)


def channel_slice(x, start, stop):
    """Channels ``[start, stop)`` of axis 1."""
    start, stop = int(start), int(stop)
    if x.ndim < 2 or not 0 <= start < stop <= x.shape[1]:
        raise ValueError(f"channel range [{start}, {stop}) outside shape {x.shape}")
    out = Tensor(x.data[:, start:stop], _op="channel_slice")
    x_slot, shape = x.slot, x.shape

    def backward(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[:, start:stop] = g
        _accumulate(x_slot, gx)

    return _maybe_record(out, (x,), backward)

"""Neural-network kernels: convolution, normalization, pooling, fixed
linear resampling, point reads, top-K selection, and point scatter.

All kernels are pure functions over immutable tensors and are differentiable
where training needs them.  Index selections (top-K, pooling argmax, scatter
cells) are hard and carry no gradient; gradients flow through sampled values
only.

Each fixed linear resampling (average pools, bilinear resize) is
``Ry @ x @ Rx.T`` with backward ``Ry.T @ g @ Rx``.  Its matrices are
built once per (sizes, dtype) and shared read-only.  Points are ``[N, K]``
int64 flat cell indices of an h x w grid, read by gather from a map on
that grid.  Only ``flat_to_points`` turns them into normalized
coordinates, for the point-flow outputs: cell (i, j) sits at
((i + 0.5) / h, (j + 0.5) / w).

The kn2row ``conv2d`` forward and the ``resize_conv3x3`` forward take
their large temporaries from ``tensor._scratch``: in a tape-free call
they are views of the thread's workspace, which keeps its size between
calls, so scoring a scene does not fault back in the pages the last one
freed.  A recorded call allocates them fresh: the tape keeps a training
step's heap large enough to reuse freed memory, and a workspace there
would only add to the step's peak.  Every output is a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .tensor import Tensor, _accumulate, _kept, _maybe_record, _scratch


@dataclass
class ConvParams:
    """Conv weights: weight [Cout, Cin, kh, kw], bias [Cout], zero padding."""

    weight: Tensor
    bias: Tensor
    stride: int = 1
    padding: int = 0


def flat_to_points(flat_idx, h, w):
    """Map flat grid indices to normalized cell centers, preserving order."""
    flat_idx = np.asarray(flat_idx)
    u = (flat_idx // w + 0.5) / h
    v = (flat_idx % w + 0.5) / w
    return np.stack([u, v], axis=-1).astype(np.float64)


# ---------------------------------------------------------------------------
# convolution

# The tile budget for large kernel temporaries, in elements (512 KiB in
# float32): the most in one column tile of the stacked output-gradient block
# that conv2d's backward builds, and of the tap sum that its forward
# accumulates.  Conv backward time was within noise from 2**17 to 2**20 at
# desk and 256 px shapes, while the largest per-conv backward transient
# grew with the block.  Kernels that split a batch into items
# (``_item_spans``) allow eight tiles per chunk.  Every split runs along an
# axis that no GEMM or reduction sums over, so results keep their bits.
_BLOCK = 1 << 17


def _spans(total, most):
    """``range(total)`` cut into ceil(total / most) near-equal (start, stop)
    spans, each at most ``most`` wide (one at least).  Equal cuts leave no
    short remainder: BLAS may take another kernel for a small GEMM, whose
    rounding differs."""
    parts = -(-total // max(most, 1))
    return [(total * i // parts, total * (i + 1) // parts) for i in range(parts)]


def _item_spans(n, per_item):
    """Spans of a batch of n items for a kernel whose largest temporaries hold
    ``per_item`` elements per item: whole up to eight tiles, which keeps
    every desk-scale batch one GEMM chain (a per-item GEMM on a 2x2 map
    changed bits), else the fewest equal chunks within eight tiles."""
    return _spans(n, 8 * _BLOCK // per_item)


def _phase_cells(xd, s, padding):
    """Per stride phase (a, b): ``(a*s + b, rows, cols, part)``, where
    ``part`` views the cells of the NCHW array xd whose padded cell is
    ``(s*y + a, s*x + b)``, and rows and cols are the slices of y and x
    they fill.  The phases cover every cell of xd once."""
    for a in range(s):
        # the phase's first row y0 whose padded row s*y0 + a is an input row
        y0 = max(0, -(-(padding - a) // s))
        for b in range(s):
            x0 = max(0, -(-(padding - b) // s))
            part = xd[:, :, s * y0 + a - padding :: s, s * x0 + b - padding :: s]
            yield a * s + b, slice(y0, y0 + part.shape[2]), slice(x0, x0 + part.shape[3]), part


def _padded_phases(xd, s, padding, buf):
    """The input zero-padded to ``s*hq x s*wq`` in the channel-major
    polyphase layout ``[s*s, C, N*hq*wq]``, written into ``buf``, a zeroed
    ``[s*s, C, N, hq, wq]`` array: ``buf[a*s + b, c, (n, y, x)]`` is padded
    cell ``(s*y + a, s*x + b)`` of item n, channel c.  Each input cell is
    copied once, straight from NCHW into its phase."""
    for ph, rows, cols, part in _phase_cells(xd, s, padding):
        buf[ph, :, :, rows, cols] = part.transpose(1, 0, 2, 3)
    return buf.reshape(buf.shape[0], buf.shape[1], -1)


def conv2d(x, p):
    """Cross-correlation with zero padding; differentiable in x, weight, bias.

    A 1x1, stride-1, unpadded conv is one matmul on the NCHW array; its
    backward keeps only the input's reader (``tensor._kept``) and a view
    of the weight, and a recorded output is remade from them by the same
    matmul.

    Every other conv is shift-and-accumulate ("kn2row", arXiv 1704.04428).
    The input is copied once (``_padded_phases``) into a zero-padded,
    channel-major buffer ``[s*s, C, N*hq*wq]`` holding one polyphase
    component per stride phase (a single one at stride 1), where hq x wq is
    the padded map divided by the stride s.  Tap (i, j) reads phase
    (i % s, j % s) at flat offset ``(i // s) * wq + j // s``, so each tap is
    a 2-D GEMM over the whole batch, summed into an extended output whose
    cells beyond oh x ow are dropped.  The taps run over equal column tiles
    of that output (``_spans``) of at most ``_BLOCK`` elements.  Each tile
    is summed in contiguous scratch: the first tap's GEMM writes one
    ``[cout, tile]`` array, each later tap's GEMM a second that is added
    into the first, and the sum is copied into the extended output.  A
    column is one output cell, so every cell keeps its bits.  The buffer is
    1x the padded input, not a kh*kw-fold column matrix (the memory
    argument of MEC, arXiv 1706.06873), and the tap sum needs no scratch
    wider than a tile.  In a tape-free call the buffer, the extended output
    and both tiles are views of the thread's workspace (see the module
    docstring).  The tape keeps the input's reader and the weight array it
    was given, not the buffer, which would be a second copy of the input,
    nor the tap-major weight.

    Backward rebuilds the buffer from the kept input, byte for byte.  It
    stacks, per stride phase, the output gradient shifted by each of the
    phase's taps into one block ``G [taps * cout, cols]``, a column tile of
    at most ``_BLOCK`` elements at a time.  Each tile then costs two GEMMs:
    ``G @ buf[ph, :, cols].T`` adds to the phase's weight gradient, and
    ``W_ph.T @ G``, where ``W_ph`` stacks the phase's tap weights, is
    written over those buffer columns, which no later GEMM reads.  So the
    rebuilt buffer turns into the input gradient in the padded layout, and
    backward allocates no second buffer.  Each phase's block of it is
    copied once, straight into the NCHW input gradient.
    """
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = p.weight.shape
    if kh not in (1, 3) or kw not in (1, 3):
        raise ValueError(f"kernel sizes limited to 1 and 3, got {kh}x{kw}")
    if cin != cin_w:
        raise ValueError(f"input has {cin} channels, weight expects {cin_w}")
    s, padding = int(p.stride), int(p.padding)
    if s < 1:
        raise ValueError(f"conv stride {s} must be >= 1")
    if padding < 0:
        raise ValueError(f"conv padding {padding} must be >= 0")
    oh = (h + 2 * padding - kh) // s + 1
    ow = (w + 2 * padding - kw) // s + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"degenerate output size {oh}x{ow}")
    # Both backward closures are defined here, not in helpers: pfbench's
    # tracer names a tape entry's op kind after the function defining it.
    x_slot, w_slot, b_slot = x.slot, p.weight.slot, p.bias.slot
    xk = _kept(x)
    if (kh, kw, s, padding) == (1, 1, 1, 0):
        w2, bias = p.weight.data.reshape(cout, cin), p.bias.data

        def product(xd):
            with np.errstate(over="ignore"):  # overflow surfaces as the finiteness error
                out_data = np.matmul(w2, xd.reshape(n, cin, h * w))
                out_data += bias[:, None]
            return out_data.reshape(n, cout, h, w)

        out = Tensor(product(x.data), _op="conv2d")

        def backward(g):
            g3 = g.reshape(n, cout, h * w)
            x3 = xk().reshape(n, cin, h * w)
            _accumulate(w_slot, np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0).reshape(cout, cin, 1, 1))
            del x3  # a remade input is freed before the input gradient exists
            _accumulate(b_slot, g3.sum(axis=(0, 2)))
            if x_slot.requires_grad:
                _accumulate(x_slot, np.matmul(w2.T, g3).reshape(n, cin, h, w))

        def remake():
            return product(xk())

        return _maybe_record(out, (x, p.weight, p.bias), backward, remake)

    hq = -(-(h + 2 * padding) // s)
    wq = -(-(w + 2 * padding) // s)
    lq = n * hq * wq
    taps = [(i, j, (i % s) * s + j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    # every kept output cell k satisfies k + offset < lq for every tap, so
    # the taps cover the first m cells of the extended output
    m = lq - taps[-1][3]
    wd = p.weight.data
    wt = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))  # [kh, kw, cout, cin]
    spans = _spans(m, _BLOCK // cout)
    tile = cout * max(c1 - c0 for c0, c1 in spans)
    sizes = (s * s * cin * lq, cout * lq, tile, tile)  # buffer, extended output, two tiles
    with _scratch((x, p.weight, p.bias), x.dtype, sizes) as scratch:
        buf = _padded_phases(x.data, s, padding, scratch.zeros(0, (s * s, cin, n, hq, wq)))
        ext = scratch.take(1, (cout, lq))
        with np.errstate(over="ignore"):  # overflow surfaces as the finiteness error
            for c0, c1 in spans:
                acc, part = scratch.take(2, (cout, c1 - c0)), scratch.take(3, (cout, c1 - c0))
                for t, (i, j, ph, d) in enumerate(taps):
                    np.matmul(wt[i, j], buf[ph, :, d + c0 : d + c1], out=part if t else acc)
                    if t:
                        acc += part
                ext[:, c0:c1] = acc
            del buf
            out_data = np.empty((n, cout, oh, ow), dtype=x.dtype)
            kept = ext.reshape(cout, n, hq, wq)[:, :, :oh, :ow].transpose(1, 0, 2, 3)
            np.add(kept, p.bias.data[:, None, None], out=out_data)
    out = Tensor(out_data, _op="conv2d")

    def backward(g):
        # phase (pa, pb) holds the taps (pa + s * a, pb + s * b), at offset
        # d = a * wq + b; phase (0, 0) holds the most, na x nb, and a phase
        # with none (a 1x1 conv at stride > 1) gets zeros from an empty GEMM
        na, nb = -(-kh // s), -(-kw // s)
        tile = min(lq, _BLOCK // (na * nb * cout))
        # the extended output gradient after dmax zero columns; shifted[a, b]
        # is it moved right by d = a * wq + b columns, as tap (a, b) of a
        # phase reads it: shifted[a, b, :, c] = gpad[:, dmax - d + c]
        dmax = taps[-1][3]
        gpad = np.zeros((cout, dmax + lq), dtype=g.dtype)
        gpad[:, dmax:].reshape(cout, n, hq, wq)[:, :, :oh, :ow] = g.transpose(1, 0, 2, 3)
        e = gpad.itemsize
        shifted = np.lib.stride_tricks.as_strided(
            gpad[:, dmax:], (na, nb, cout, lq), (-wq * e, -e, gpad.strides[0], e), writeable=False
        )
        gw = np.empty((kh, kw, cout, cin), dtype=g.dtype)
        # the rebuilt buffer turns into the input gradient
        buf = _padded_phases(xk(), s, padding, np.zeros((s * s, cin, n, hq, wq), dtype=g.dtype))
        block = np.empty(na * nb * cout * tile, dtype=g.dtype)
        for pa in range(s):
            for pb in range(s):
                ta, tb = len(range(pa, kh, s)), len(range(pb, kw, s))
                ph, r = pa * s + pb, ta * tb * cout
                w_ph = wd.transpose(2, 3, 0, 1)[pa::s, pb::s].reshape(r, cin)  # a copy
                gw_ph = np.zeros((r, cin), dtype=g.dtype)
                for c0 in range(0, lq, tile):
                    cw = min(tile, lq - c0)
                    blk = block[: r * cw].reshape(r, cw)
                    blk.reshape(ta, tb, cout, cw)[...] = shifted[:ta, :tb, :, c0 : c0 + cw]
                    gw_ph += np.matmul(blk, buf[ph, :, c0 : c0 + cw].T)
                    if x_slot.requires_grad:
                        np.matmul(w_ph.T, blk, out=buf[ph, :, c0 : c0 + cw])
                gw[pa::s, pb::s] = gw_ph.reshape(ta, tb, cout, cin)
        del gpad, shifted, block, blk
        _accumulate(w_slot, np.ascontiguousarray(gw.transpose(2, 3, 0, 1)))
        _accumulate(b_slot, g.sum(axis=(0, 2, 3)))
        if not x_slot.requires_grad:
            return
        phases = buf.reshape(s * s, cin, n, hq, wq)
        gx = np.empty((n, cin, h, w), dtype=g.dtype)
        for ph, rows, cols, part in _phase_cells(gx, s, padding):
            part[...] = phases[ph, :, :, rows, cols].transpose(1, 0, 2, 3)
        _accumulate(x_slot, gx)

    return _maybe_record(out, (x, p.weight, p.bias), backward)


# ---------------------------------------------------------------------------
# normalization

_NORM_EPS = 1e-5  # added to each channel's variance


def channel_norm(x, gamma, beta):
    """Per-channel standardization over (N, H, W) followed by affine.  The
    tape keeps ``xhat``, and a recorded output is remade from it."""
    n, c, h, w = x.shape
    if n * h * w < 2:
        raise ValueError("channel_norm needs at least 2 elements per channel")
    axes = (0, 2, 3)
    mu = x.data.mean(axis=axes, keepdims=True)
    xhat = x.data - mu
    sq = xhat ** 2
    var = sq.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat *= inv
    g4 = gamma.data.reshape(1, c, 1, 1)
    b4 = beta.data.reshape(1, c, 1, 1)

    def affine(buf):
        np.multiply(g4, xhat, out=buf)
        buf += b4
        return buf

    out = Tensor(affine(sq), _op="channel_norm")  # the squares are dead
    x_slot, gamma_slot, beta_slot = x.slot, gamma.slot, beta.slot

    def backward(g):
        # two full-size buffers: dxhat becomes the input gradient, and t
        # holds each product that is reduced or subtracted
        t = g * xhat
        _accumulate(gamma_slot, t.sum(axis=axes))
        _accumulate(beta_slot, g.sum(axis=axes))
        dxhat = g * g4
        m1 = dxhat.mean(axis=axes, keepdims=True)
        m2 = np.multiply(dxhat, xhat, out=t).mean(axis=axes, keepdims=True)
        dxhat -= m1
        dxhat -= np.multiply(xhat, m2, out=t)
        dxhat *= inv
        _accumulate(x_slot, dxhat)

    def remake():
        return affine(np.empty_like(xhat))

    return _maybe_record(out, (x, gamma, beta), backward, remake)


# ---------------------------------------------------------------------------
# pooling


def _fixed(builder):
    """Memoize a builder of a fixed operator per argument tuple (sizes, and
    dtype where it takes one); every caller shares one read-only array."""

    @lru_cache(maxsize=256)
    @wraps(builder)
    def cached(*args):
        arr = builder(*args)
        arr.flags.writeable = False
        return arr

    return cached


def _adaptive_edges(size, bins):
    starts = [(i * size) // bins for i in range(bins)]
    ends = [-((-(i + 1) * size) // bins) for i in range(bins)]
    return starts, ends


@_fixed
def _region_indices(size, bins):
    """[bins, L] indices of each adaptive region, padded by repeating its last."""
    starts, ends = np.array(_adaptive_edges(size, bins))
    span = np.arange((ends - starts).max())
    return np.minimum(starts[:, None] + span, ends[:, None] - 1)


def _pool_size(out_hw, h, w):
    """An adaptive pool's output size, checked to lie in [1, h] x [1, w]."""
    kh, kw = int(out_hw[0]), int(out_hw[1])
    if kh < 1 or kw < 1:
        raise ValueError(f"pool output {kh}x{kw} must be positive")
    if kh > h or kw > w:
        raise ValueError(f"pool output {kh}x{kw} exceeds input {h}x{w}")
    return kh, kw


def adaptive_max_pool(x, out_hw):
    """Adaptive max pooling returning values and flat argmax indices.

    Region (i, j) spans rows [floor(i*H/kh), ceil((i+1)*H/kh)) and the
    analogous columns; regions cover the map.  Ties break toward the
    smallest flat index.  The gradient routes to the argmax element.
    """
    n, c, h, w = x.shape
    kh, kw = _pool_size(out_hw, h, w)
    rows = _region_indices(h, kh)  # [kh, Lr]
    cols = _region_indices(w, kw)  # [kw, Lc]
    # [N, C, kh, kw, Lr * Lc]; padding repeats an earlier element of the
    # region, so the first max is still the smallest flat index
    cells = (rows[:, None, :, None] * w + cols[None, :, None, :]).reshape(kh, kw, -1)
    flat = x.data.reshape(n, c, h * w)[:, :, cells]
    am = flat.argmax(axis=4)
    pooled = np.take_along_axis(flat, am[..., None], axis=4)[..., 0]
    indices = cells[np.arange(kh)[:, None], np.arange(kw)[None, :], am]
    out = Tensor(pooled, _op="adaptive_max_pool")
    x_slot, dtype = x.slot, x.dtype

    def backward(g):
        gx = np.zeros((n, c, h * w), dtype=dtype)
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(gx, (nn, cc, indices), g)
        _accumulate(x_slot, gx.reshape(n, c, h, w))

    _maybe_record(out, (x,), backward)
    return out, indices


# ---------------------------------------------------------------------------
# fixed linear resampling: Ry @ x @ Rx.T


def _resample(a, ry, rx):
    """``ry @ a @ rx.T`` over the last two axes; its adjoint is ``_resample(g, ry.T, rx.T)``."""
    return np.matmul(ry, np.matmul(a, rx.T))


@_fixed
def _region_means(size, bins, dtype):
    """[bins, size] matrix whose row i averages adaptive region i."""
    starts, ends = np.array(_adaptive_edges(size, bins))
    span = np.arange(size)
    inside = (span >= starts[:, None]) & (span < ends[:, None])
    return (inside / (ends - starts)[:, None]).astype(dtype)


def adaptive_avg_pool(x, out_hw):
    """Adaptive average pooling under the same region rule as the max pool."""
    n, c, h, w = x.shape
    kh, kw = _pool_size(out_hw, h, w)
    ry, rx = _region_means(h, kh, x.dtype), _region_means(w, kw, x.dtype)
    out = Tensor(_resample(x.data, ry, rx), _op="adaptive_avg_pool")
    x_slot = x.slot

    def backward(g):
        _accumulate(x_slot, _resample(g, ry.T, rx.T))

    return _maybe_record(out, (x,), backward)


@_fixed
def _box_band(size, dtype):
    """[size, size] matrix of 1/3 on |i - j| <= 1: a zero-padded 3-tap mean."""
    span = np.arange(size)
    return (np.abs(span[:, None] - span[None, :]) <= 1).astype(dtype) / 3


def box_avg_pool(x):
    """Stride-1 zero-padded 3x3 mean with divisor 9 everywhere, on maps of
    at least 3x3: ``B_h @ x @ B_w.T`` with the banded ``_box_band`` per
    axis.  B is symmetric, so the backward is the same product of g."""
    n, c, h, w = x.shape
    if min(h, w) < 3:
        raise ValueError(f"3x3 box filter exceeds map {h}x{w}")
    by, bx = _box_band(h, x.dtype), _box_band(w, x.dtype)
    out = Tensor(_resample(x.data, by, bx), _op="box_avg_pool")
    x_slot = x.slot

    def backward(g):
        _accumulate(x_slot, _resample(g, by, bx))

    return _maybe_record(out, (x,), backward)


@_fixed
def _interp_matrix(out_size, in_size, dtype):
    """Rows of a [out, in] matrix holding grid-center bilinear weights."""
    r = np.zeros((out_size, in_size), dtype=dtype)
    pos = (np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5
    pos = np.clip(pos, 0.0, in_size - 1.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = pos - lo
    rows = np.arange(out_size)
    np.add.at(r, (rows, lo), 1.0 - frac)
    np.add.at(r, (rows, hi), frac)
    return r


def bilinear_resize(x, out_hw):
    """Resize by sampling at grid centers with edge clamping; a resize to
    the input's own size returns the input itself."""
    n, c, h, w = x.shape
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh < 1 or ow < 1:
        raise ValueError("output size must be positive")
    if (oh, ow) == (h, w):
        return x
    ry = _interp_matrix(oh, h, x.dtype)
    rx = _interp_matrix(ow, w, x.dtype)
    out = Tensor(_resample(x.data, ry, rx), _op="bilinear_resize")
    x_slot = x.slot

    def backward(g):
        _accumulate(x_slot, _resample(g, ry.T, rx.T))

    return _maybe_record(out, (x,), backward)


@_fixed
def _shifted_interp(out_size, in_size, dtype):
    """[out, 3 * in] interpolation matrix of a 3-tap padded conv: block i
    holds, in row Y, row Y + i - 1 of ``_interp_matrix``, or zeros where
    that row falls outside the map."""
    r = _interp_matrix(out_size, in_size, dtype)
    r3 = np.zeros((out_size, 3, in_size), dtype=dtype)
    r3[1:, 0] = r[:-1]
    r3[:, 1] = r
    r3[:-1, 2] = r[1:]
    return r3.reshape(out_size, 3 * in_size)


def resize_conv3x3(x, weight, out_hw):
    """``conv2d(bilinear_resize(x, out_hw), ConvParams(weight, 0, padding=1))``
    computed on x's own grid; differentiable in x and weight.

    The resize is ``Ry @ x @ Rx.T`` and tap (i, j) reads the resized map
    shifted by (i - 1, j - 1), which is the same as shifting the rows of
    Ry and Rx; zero padding is the rows shifted off the map.  So with Ry3
    ``[oh, 3h]`` and Rx3 ``[ow, 3w]`` stacking the three shifted matrices
    (``_shifted_interp``), the output is three 2-D GEMMs: the taps mix
    channels on the coarse grid, ``[(j, co, i), ci] @ [ci, (n, x, y)]``,
    then ``(i, y)`` is contracted with Ry3 and ``(j, x)`` with Rx3, with
    one transpose-copy before each of the last two.  Backward runs the
    same GEMMs transposed.  The tape keeps the input's reader
    (``tensor._kept``), the weight array it was given and the two small
    matrices; backward rebuilds the stacked weight, and the channel-major
    input for the weight gradient's GEMM, which it drops right after.

    Both passes run over chunks of batch items (``_item_spans``), so the
    tap-mix and the Ry3 product exist for one chunk at a time.  In the
    backward the tap-mix gradient ``gz [9 * cout, n * w * h]`` stays whole:
    the weight gradient ``gz @ xc.T`` sums over (n, x, y), and summing it
    by chunks would change its bits.  Only its Rx3 product and each
    chunk's block of ``gz`` are computed chunk by chunk.

    In a tape-free forward the channel-major input, the tap-mix ``z``, its
    transposed copy, and the Ry3 product's transposed copy, which takes
    ``z``'s region, are views of the thread's workspace (see the module
    docstring).
    """
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if (kh, kw) != (3, 3):
        raise ValueError(f"resize_conv3x3 needs a 3x3 kernel, got {kh}x{kw}")
    if cin != cin_w:
        raise ValueError(f"input has {cin} channels, weight expects {cin_w}")
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh < 1 or ow < 1:
        raise ValueError("output size must be positive")
    ry = _shifted_interp(oh, h, x.dtype)
    rx = _shifted_interp(ow, w, x.dtype)
    wd = weight.data

    def stacked():
        return np.ascontiguousarray(wd.transpose(3, 0, 2, 1)).reshape(9 * cout, cin)

    ws = stacked()
    xk = _kept(x)
    per_item = 3 * cout * w * max(3 * h, oh)  # the larger of z and the Ry product
    spans = _item_spans(n, per_item)
    most = max(n1 - n0 for n0, n1 in spans)
    # the channel-major input; z, then the Ry product's transposed copy; z's
    # transposed copy
    sizes = (cin * n * w * h, most * per_item, most * 9 * cout * w * h)
    # each GEMM result is dropped as soon as its transposed copy exists, and
    # the whole-batch result is made only once the first chunk's tap-mix is
    # gone, so an unsplit batch peaks as low as one unchunked GEMM chain
    out_data = None
    with _scratch((x, weight), x.dtype, sizes) as scratch:
        xc = scratch.take(0, (cin, n, w, h))
        xc[...] = x.data.transpose(1, 0, 3, 2)
        xc = xc.reshape(cin, n * w * h)
        with np.errstate(over="ignore"):  # overflow surfaces as the finiteness error
            for n0, n1 in spans:
                k = n1 - n0
                z = np.matmul(ws, xc[:, n0 * w * h : n1 * w * h], out=scratch.take(1, (9 * cout, k * w * h)))
                zt = scratch.take(2, (3, cout, k, w, 3, h))
                zt[...] = z.reshape(3, cout, 3, k, w, h).transpose(0, 1, 3, 4, 2, 5)
                del z
                a = np.matmul(zt.reshape(3 * cout * k * w, 3 * h), ry.T)
                del zt
                at = scratch.take(1, (k, cout, oh, 3, w))
                at[...] = a.reshape(3, cout, k, w, oh).transpose(2, 1, 4, 0, 3)
                del a
                if out_data is None:
                    out_data = np.empty((n, cout, oh, ow), dtype=x.dtype)
                np.matmul(at.reshape(k * cout * oh, 3 * w), rx.T, out=out_data[n0:n1].reshape(k * cout * oh, ow))
                del at
    out = Tensor(out_data, _op="resize_conv3x3")
    x_slot, w_slot = x.slot, weight.slot

    def backward(g):
        gz = None
        for n0, n1 in spans:
            k = n1 - n0
            ga = np.matmul(g[n0:n1].reshape(k * cout * oh, ow), rx).reshape(k, cout, oh, 3, w)
            ga = ga.transpose(3, 1, 0, 4, 2).reshape(3 * cout * k * w, oh)
            gzk = np.matmul(ga, ry).reshape(3, cout, k, w, 3, h)
            del ga
            if gz is None:  # made late, like the forward's output
                gz = np.empty((9 * cout, n * w * h), dtype=g.dtype)
            gz.reshape(3, cout, 3, n, w, h)[:, :, :, n0:n1] = gzk.transpose(0, 1, 4, 2, 3, 5)
            del gzk
        xc = np.ascontiguousarray(xk().transpose(1, 0, 3, 2)).reshape(cin, n * w * h)
        gws = np.matmul(gz, xc.T).reshape(3, cout, 3, cin)
        del xc
        _accumulate(w_slot, np.ascontiguousarray(gws.transpose(1, 3, 2, 0)))
        if x_slot.requires_grad:
            gx = np.matmul(stacked().T, gz).reshape(cin, n, w, h).transpose(1, 0, 3, 2)
            _accumulate(x_slot, np.ascontiguousarray(gx))

    return _maybe_record(out, (x, weight), backward)


def point_sample_batched(x, cells):
    """Read [N, K] flat cells of x's own h x w grid: [N, C, h, w] -> [N, K, C].

    A finer map is read at a grid cell's center through ``bilinear_resize``
    to the grid first; at 2x that is the mean of the cell's 2x2 block.
    """
    n, c, h, w = x.shape
    if cells.ndim != 2 or cells.shape[0] != n:
        raise ValueError(f"expected [{n}, K] cells, got {cells.shape}")
    if cells.shape[1] < 1:
        raise ValueError("need at least one point")
    if cells.min() < 0 or cells.max() >= h * w:
        raise ValueError(f"cells must lie on the {h}x{w} grid")
    out = Tensor(x.data.reshape(n, c, h * w)[np.arange(n)[:, None], :, cells], _op="point_sample")
    x_slot, dtype = x.slot, x.dtype

    def backward(g):
        gx = np.zeros(n * c * h * w, dtype=dtype)
        base = np.arange(n)[:, None, None] * c + np.arange(c)[None, :, None]  # [N, C, 1]
        idx = base * (h * w) + cells[:, None, :]  # [N, C, K]
        np.add.at(gx, idx.ravel(), g.transpose(0, 2, 1).ravel())
        _accumulate(x_slot, gx.reshape(n, c, h, w))

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# selection and scatter


def topk_select(score, k):
    """Flat indices of the K largest scores per batch item.

    Sorted by descending score, ties by ascending flat index; a pure
    function of the values with no gradient.
    """
    n, c, h, w = score.shape
    if c != 1:
        raise ValueError("topk_select expects a single-channel score map")
    k = int(k)
    if k > h * w:
        raise ValueError(f"k={k} exceeds {h * w} cells")
    if k < 1:
        raise ValueError("k must be >= 1")
    flat = score.data.reshape(n, h * w)
    order = np.argsort(-flat, axis=1, kind="stable")
    return order[:, :k].astype(np.int64)


def scatter_points_batched(base, cells, values):
    """Write value rows into [N, K] flat cells of ``base``; later write wins."""
    n, c, h, w = base.shape
    if cells.shape[0] != n or values.shape[0] != n:
        raise ValueError("batch sizes disagree")
    k = cells.shape[1]
    if values.shape[1] != k:
        raise ValueError(f"{k} points but {values.shape[1]} value rows")
    if values.shape[2] != c:
        raise ValueError(f"value rows have {values.shape[2]} channels, base has {c}")
    if k and (cells.min() < 0 or cells.max() >= h * w):
        raise ValueError(f"cells must lie on the {h}x{w} grid")
    # later write wins: keep the last occurrence of each (item, cell) key
    keys = (np.arange(n)[:, None] * (h * w) + cells).ravel()
    _, last = np.unique(keys[::-1], return_index=True)
    ni, ki = np.divmod(np.sort(keys.size - 1 - last), k)
    cell = (ni[:, None], np.arange(c)[None, :], cells[ni, ki][:, None])
    out_data = base.data.copy()
    out_data.reshape(n, c, h * w)[cell] = values.data[ni, ki]
    out = Tensor(out_data, _op="scatter_points")
    base_slot, values_slot = base.slot, values.slot
    values_shape, values_dtype = values.shape, values.dtype

    def backward(g):
        gbase = g.copy()
        gbase.reshape(n, c, h * w)[cell] = 0.0
        _accumulate(base_slot, gbase)
        gvals = np.zeros(values_shape, dtype=values_dtype)
        gvals[ni, ki] = g.reshape(n, c, h * w)[cell]
        _accumulate(values_slot, gvals)

    return _maybe_record(out, (base, values), backward)

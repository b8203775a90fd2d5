"""Neural-network kernels: convolution, normalization, pooling, bilinear
resampling, point sampling, top-K selection, and point scatter.

All kernels are pure functions over immutable tensors and are differentiable
where training needs them.  Index selections (top-K, pooling argmax, scatter
cells) are hard and carry no gradient; gradients flow through sampled values
only.

Point coordinates use the normalized grid convention: pixel (i, j) of an
H x W map sits at ((i + 0.5) / H, (j + 0.5) / W), so coordinates are
resolution independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _accumulate, _maybe_record


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

# Most elements in one column tile of the stacked output-gradient block
# that conv2d's backward builds (512 KiB in float32).  Conv backward time
# was within noise from 2**17 to 2**20 at desk and 256 px shapes, while the
# largest per-conv backward transient grew with the block.
_BLOCK = 1 << 17


def conv2d(x, p):
    """Cross-correlation with zero padding; differentiable in x, weight, bias.

    A 1x1, stride-1, unpadded conv is one matmul on the NCHW array; its
    backward keeps only views of the input and the weight.

    Every other conv is shift-and-accumulate ("kn2row", arXiv 1704.04428).
    The input is copied once into a zero-padded, channel-major buffer
    ``[s*s, C, N*hq*wq]`` holding one polyphase component per stride phase
    (a single one at stride 1), where hq x wq is the padded map divided by
    the stride s.  Tap (i, j) reads phase (i % s, j % s) at flat offset
    ``(i // s) * wq + j // s``, so each tap is one 2-D GEMM over the whole
    batch, added into an extended output whose cells beyond oh x ow are
    dropped.  The tape keeps that 1x buffer and the tap-major weight, not
    a kh*kw-fold column matrix (the memory argument of MEC, arXiv
    1706.06873).

    Backward stacks, per stride phase, the output gradient shifted by each
    of the phase's taps into one block ``G [taps * cout, cols]``, a column
    tile of at most ``_BLOCK`` elements at a time.  Each tile then costs two
    GEMMs: ``G @ buf[ph, :, cols].T`` adds to the phase's weight gradient,
    and ``W_ph.T @ G`` is written straight into the input gradient's
    columns, where ``W_ph`` stacks the phase's tap weights.
    """
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = p.weight.shape
    if kh not in (1, 3) or kw not in (1, 3):
        raise ValueError(f"kernel sizes limited to 1 and 3, got {kh}x{kw}")
    if cin != cin_w:
        raise ValueError(f"input has {cin} channels, weight expects {cin_w}")
    s, padding = int(p.stride), int(p.padding)
    oh = (h + 2 * padding - kh) // s + 1
    ow = (w + 2 * padding - kw) // s + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"degenerate output size {oh}x{ow}")
    # Both backward closures are defined here, not in helpers: pfbench's
    # tracer names a tape entry's op kind after the function defining it.
    if (kh, kw, s, padding) == (1, 1, 1, 0):
        x3 = x.data.reshape(n, cin, h * w)
        w2 = p.weight.data.reshape(cout, cin)
        with np.errstate(over="ignore"):  # overflow surfaces as the finiteness error
            out_data = np.matmul(w2, x3)
            out_data += p.bias.data[:, None]
        out = Tensor(out_data.reshape(n, cout, h, w), _op="conv2d")

        def backward(g):
            g3 = g.reshape(n, cout, h * w)
            _accumulate(p.weight, np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0).reshape(p.weight.shape))
            _accumulate(p.bias, g3.sum(axis=(0, 2)))
            if x.requires_grad:
                _accumulate(x, np.matmul(w2.T, g3).reshape(x.shape))

        return _maybe_record(out, (x, p.weight, p.bias), backward)

    hq = -(-(h + 2 * padding) // s)
    wq = -(-(w + 2 * padding) // s)
    lq = n * hq * wq
    xp = np.zeros((cin, n, s * hq, s * wq), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x.data.transpose(1, 0, 2, 3)
    # buf[a * s + b, c, (n, y, x)] = xp[c, n, s * y + a, s * x + b]; a view at stride 1
    buf = xp.reshape(cin, n, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4).reshape(s * s, cin, lq)
    taps = [(i, j, (i % s) * s + j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    # every kept output cell k satisfies k + offset < lq for every tap, so
    # the taps cover the first m cells of the extended output
    m = lq - taps[-1][3]
    wt = np.ascontiguousarray(p.weight.data.transpose(2, 3, 0, 1))  # [kh, kw, cout, cin]

    ext = np.empty((cout, lq), dtype=x.dtype)
    acc, tmp = ext[:, :m], np.empty((cout, m), dtype=x.dtype)
    with np.errstate(over="ignore"):  # overflow surfaces as the finiteness error
        for t, (i, j, ph, d) in enumerate(taps):
            np.matmul(wt[i, j], buf[ph, :, d : d + m], out=tmp if t else acc)
            if t:
                acc += tmp
        out_data = np.empty((n, cout, oh, ow), dtype=x.dtype)
        kept = ext.reshape(cout, n, hq, wq)[:, :, :oh, :ow].transpose(1, 0, 2, 3)
        np.add(kept, p.bias.data[:, None, None], out=out_data)
    out = Tensor(out_data, _op="conv2d")

    def backward(g):
        # phase (pa, pb) holds the taps (pa + s * a, pb + s * b), at offset
        # d = a * wq + b; phase (0, 0) holds the most, na x nb
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
        gbuf = np.zeros((s * s, cin, lq), dtype=g.dtype) if x.requires_grad else None
        block = np.empty(na * nb * cout * tile, dtype=g.dtype)
        for pa in range(s):
            for pb in range(s):
                ta, tb = len(range(pa, kh, s)), len(range(pb, kw, s))
                if not ta * tb:
                    continue
                ph, r = pa * s + pb, ta * tb * cout
                w_ph = wt[pa::s, pb::s].reshape(r, cin)
                gw_ph = np.zeros((r, cin), dtype=g.dtype)
                for c0 in range(0, lq, tile):
                    cw = min(tile, lq - c0)
                    blk = block[: r * cw].reshape(r, cw)
                    blk.reshape(ta, tb, cout, cw)[...] = shifted[:ta, :tb, :, c0 : c0 + cw]
                    gw_ph += np.matmul(blk, buf[ph, :, c0 : c0 + cw].T)
                    if gbuf is not None:
                        np.matmul(w_ph.T, blk, out=gbuf[ph, :, c0 : c0 + cw])
                gw[pa::s, pb::s] = gw_ph.reshape(ta, tb, cout, cin)
        _accumulate(p.weight, np.ascontiguousarray(gw.transpose(2, 3, 0, 1)))
        _accumulate(p.bias, g.sum(axis=(0, 2, 3)))
        if gbuf is None:
            return
        gxp = gbuf.reshape(s, s, cin, n, hq, wq).transpose(2, 3, 4, 0, 5, 1).reshape(cin, n, s * hq, s * wq)
        gx = gxp[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)
        _accumulate(x, np.ascontiguousarray(gx))

    return _maybe_record(out, (x, p.weight, p.bias), backward)


# ---------------------------------------------------------------------------
# normalization


def channel_norm(x, gamma, beta, eps=1e-5):
    """Per-channel standardization over (N, H, W) followed by affine."""
    n, c, h, w = x.shape
    if n * h * w < 2:
        raise ValueError("channel_norm needs at least 2 elements per channel")
    axes = (0, 2, 3)
    mu = x.data.mean(axis=axes, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    g4 = gamma.data.reshape(1, c, 1, 1)
    out = Tensor(g4 * xhat + beta.data.reshape(1, c, 1, 1), _op="channel_norm")

    def backward(g):
        _accumulate(gamma, (g * xhat).sum(axis=axes))
        _accumulate(beta, g.sum(axis=axes))
        dxhat = g * g4
        m1 = dxhat.mean(axis=axes, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
        _accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return _maybe_record(out, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# pooling


def _adaptive_edges(size, bins):
    starts = [(i * size) // bins for i in range(bins)]
    ends = [-((-(i + 1) * size) // bins) for i in range(bins)]
    return starts, ends


def adaptive_max_pool(x, out_hw):
    """Adaptive max pooling returning values and flat argmax indices.

    Region (i, j) spans rows [floor(i*H/kh), ceil((i+1)*H/kh)) and the
    analogous columns; regions cover the map.  Ties break toward the
    smallest flat index.  The gradient routes to the argmax element.
    """
    n, c, h, w = x.shape
    kh, kw = int(out_hw[0]), int(out_hw[1])
    if kh > h or kw > w:
        raise ValueError(f"pool output {kh}x{kw} exceeds input {h}x{w}")
    rs, re = _adaptive_edges(h, kh)
    cs, ce = _adaptive_edges(w, kw)
    pooled = np.empty((n, c, kh, kw), dtype=x.dtype)
    indices = np.empty((n, c, kh, kw), dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            region = x.data[:, :, rs[i] : re[i], cs[j] : ce[j]]
            rw = ce[j] - cs[j]
            flat = region.reshape(n, c, -1)
            am = flat.argmax(axis=2)  # first max == smallest flat index
            pooled[:, :, i, j] = np.take_along_axis(flat, am[:, :, None], axis=2)[:, :, 0]
            indices[:, :, i, j] = (rs[i] + am // rw) * w + (cs[j] + am % rw)
    out = Tensor(pooled, _op="adaptive_max_pool")

    def backward(g):
        gx = np.zeros((n, c, h * w), dtype=x.dtype)
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(gx, (nn, cc, indices), g)
        _accumulate(x, gx.reshape(n, c, h, w))

    _maybe_record(out, (x,), backward)
    return out, indices


def adaptive_avg_pool(x, out_hw):
    """Adaptive average pooling under the same region rule as the max pool."""
    n, c, h, w = x.shape
    kh, kw = int(out_hw[0]), int(out_hw[1])
    if kh > h or kw > w:
        raise ValueError(f"pool output {kh}x{kw} exceeds input {h}x{w}")
    rs, re = _adaptive_edges(h, kh)
    cs, ce = _adaptive_edges(w, kw)
    pooled = np.empty((n, c, kh, kw), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            pooled[:, :, i, j] = x.data[:, :, rs[i] : re[i], cs[j] : ce[j]].mean(axis=(2, 3))
    out = Tensor(pooled, _op="adaptive_avg_pool")

    def backward(g):
        gx = np.zeros((n, c, h, w), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                area = (re[i] - rs[i]) * (ce[j] - cs[j])
                gx[:, :, rs[i] : re[i], cs[j] : ce[j]] += g[:, :, i : i + 1, j : j + 1] / area
        _accumulate(x, gx)

    return _maybe_record(out, (x,), backward)


def box_avg_pool(x, k):
    """Stride-1 zero-padded k x k mean with divisor k^2 everywhere."""
    if k % 2 == 0:
        raise ValueError("box filter size must be odd")
    if k not in (3, 5):
        raise ValueError("box filter size limited to 3 or 5")
    n, c, h, w = x.shape
    if k > min(h, w):
        raise ValueError(f"box filter {k} exceeds map {h}x{w}")

    def box(arr):
        p = k // 2
        ap = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=arr.dtype)
        ap[:, :, p : p + h, p : p + w] = arr
        acc = np.zeros((n, c, h, w), dtype=arr.dtype)
        for i in range(k):
            for j in range(k):
                acc += ap[:, :, i : i + h, j : j + w]
        return acc / (k * k)

    out = Tensor(box(x.data), _op="box_avg_pool")

    def backward(g):
        _accumulate(x, box(g))  # zero-padded box sum is self-adjoint

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# bilinear resampling


def _interp_matrix(out_size, in_size, dtype):
    """Rows of a [out, in] matrix holding grid-center bilinear weights."""
    r = np.zeros((out_size, in_size), dtype=dtype)
    pos = (np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5
    pos = np.clip(pos, 0.0, in_size - 1.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = pos - lo
    for i in range(out_size):
        r[i, lo[i]] += 1.0 - frac[i]
        r[i, hi[i]] += frac[i]
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
    out = Tensor(np.matmul(ry, np.matmul(x.data, rx.T)), _op="bilinear_resize")

    def backward(g):
        _accumulate(x, np.matmul(ry.T, np.matmul(g, rx)))

    return _maybe_record(out, (x,), backward)


def _point_weights(pts, h, w):
    """4-neighbor indices and weights for [N, K, 2] normalized points."""
    u, v = pts[..., 0], pts[..., 1]
    y = np.clip(u * h - 0.5, 0.0, h - 1.0)
    x_ = np.clip(v * w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(y).astype(np.int64)
    x0 = np.floor(x_).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = y - y0
    wx = x_ - x0
    return (y0, x0, y1, x1), (wy, wx)


def point_sample_batched(x, pts):
    """Bilinear point sampling: [N, C, H, W] with [N, K, 2] -> [N, K, C]."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 2 or pts.shape[0] != x.shape[0]:
        raise ValueError(f"expected [N, K, 2] points, got {pts.shape}")
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise ValueError("point coordinates must lie in [0, 1]")
    n, c, h, w = x.shape
    k = pts.shape[1]
    if k < 1:
        raise ValueError("need at least one point")
    (y0, x0, y1, x1), (wy, wx) = _point_weights(pts, h, w)
    nn = np.arange(n)[:, None]
    v00 = x.data[nn, :, y0, x0]  # [N, K, C]
    v01 = x.data[nn, :, y0, x1]
    v10 = x.data[nn, :, y1, x0]
    v11 = x.data[nn, :, y1, x1]
    w00 = ((1 - wy) * (1 - wx))[..., None].astype(x.dtype)
    w01 = ((1 - wy) * wx)[..., None].astype(x.dtype)
    w10 = (wy * (1 - wx))[..., None].astype(x.dtype)
    w11 = (wy * wx)[..., None].astype(x.dtype)
    out = Tensor(w00 * v00 + w01 * v01 + w10 * v10 + w11 * v11, _op="point_sample")

    def backward(g):
        gx = np.zeros((n, c, h * w), dtype=x.dtype)
        base = np.arange(n)[:, None, None] * c + np.arange(c)[None, :, None]  # [N, C, 1]
        for yy, xx, ww in ((y0, x0, w00), (y0, x1, w01), (y1, x0, w10), (y1, x1, w11)):
            flat = (yy * w + xx)[:, None, :]  # [N, 1, K]
            idx = base * (h * w) + flat  # [N, C, K]
            np.add.at(gx.reshape(-1), idx.ravel(), (ww * g).transpose(0, 2, 1).ravel())
        _accumulate(x, gx.reshape(n, c, h, w))

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


def _winner_mask(cells_flat):
    """Boolean mask of writes that survive later-write-wins per column [N, K]."""
    n, k = cells_flat.shape
    keep = np.zeros((n, k), dtype=bool)
    for i in range(n):
        _, last = np.unique(cells_flat[i, ::-1], return_index=True)
        keep[i, k - 1 - last] = True
    return keep


def scatter_points_batched(base, pts, values):
    """Write value rows into the cells under each point; later write wins."""
    pts = np.asarray(pts, dtype=np.float64)
    n, c, h, w = base.shape
    if pts.shape[0] != n or values.shape[0] != n:
        raise ValueError("batch sizes disagree")
    k = pts.shape[1]
    if values.shape[1] != k:
        raise ValueError(f"{k} points but {values.shape[1]} value rows")
    rows = np.clip(np.floor(pts[..., 0] * h), 0, h - 1).astype(np.int64)
    cols = np.clip(np.floor(pts[..., 1] * w), 0, w - 1).astype(np.int64)
    cells = rows * w + cols
    keep = _winner_mask(cells)
    out_data = base.data.copy()
    ni, ki = np.nonzero(keep)
    out_data[ni[:, None], np.arange(c)[None, :], rows[ni, ki][:, None], cols[ni, ki][:, None]] = values.data[ni, ki]
    out = Tensor(out_data, _op="scatter_points")

    def backward(g):
        gbase = g.copy()
        gbase[ni[:, None], np.arange(c)[None, :], rows[ni, ki][:, None], cols[ni, ki][:, None]] = 0.0
        _accumulate(base, gbase)
        gvals = np.zeros(values.shape, dtype=values.dtype)
        gvals[ni, ki] = g[ni[:, None], np.arange(c)[None, :], rows[ni, ki][:, None], cols[ni, ki][:, None]]
        _accumulate(values, gvals)

    return _maybe_record(out, (base, values), backward)

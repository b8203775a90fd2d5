import tracemalloc

import numpy as np
import pytest

from pfnet.gradcheck import DEFAULT_TOL, check_gradients
from pfnet.ops import (
    ConvParams,
    adaptive_avg_pool,
    adaptive_max_pool,
    bilinear_resize,
    box_avg_pool,
    channel_norm,
    conv2d,
    flat_to_points,
    point_sample_batched,
    scatter_points_batched,
    topk_select,
)
from pfnet import config, network, ops, pointflow
from pfnet.tensor import Tape, Tensor, mul, reverse_accumulate, sum_all


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.Generator(np.random.PCG64(seed)).uniform(lo, hi, shape)


def conv_params(cout, cin, k, seed, stride=1, padding=0):
    return ConvParams(
        weight=Tensor(rand((cout, cin, k, k), seed), requires_grad=True),
        bias=Tensor(rand((cout,), seed + 1), requires_grad=True),
        stride=stride,
        padding=padding,
    )


# ---------------------------------------------------------------------------
# conv2d


def test_conv_1x1_identity():
    x = Tensor(rand((2, 3, 5, 5), 0))
    p = ConvParams(Tensor(np.eye(3).reshape(3, 3, 1, 1)), Tensor(np.zeros(3)))
    out = conv2d(x, p)
    assert np.allclose(out.data, x.data)


def test_conv_3x3_box_sum_of_one_hot():
    img = np.zeros((1, 1, 3, 3))
    img[0, 0, 1, 1] = 1.0
    p = ConvParams(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)), padding=1)
    out = conv2d(Tensor(img), p)
    # every window contains the center pixel once
    assert np.array_equal(out.data[0, 0], np.ones((3, 3)))


def test_conv_stride2_shape_law():
    x = Tensor(rand((1, 2, 4, 4), 1))
    p = conv_params(3, 2, 1, 2, stride=2)
    out = conv2d(x, p)
    assert out.shape == (1, 3, 2, 2)
    assert np.allclose(out.data[0, :, 0, 1], (p.weight.data[:, :, 0, 0] @ x.data[0, :, 0, 2]) + p.bias.data)


def test_conv_channel_mismatch():
    with pytest.raises(ValueError):
        conv2d(Tensor(rand((1, 2, 4, 4), 3)), conv_params(1, 3, 1, 4))


def test_conv_degenerate_output():
    with pytest.raises(ValueError):
        conv2d(Tensor(rand((1, 1, 2, 2), 5)), conv_params(1, 1, 3, 6))


def test_conv_kernel_size_restricted():
    p = ConvParams(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError):
        conv2d(Tensor(rand((1, 1, 8, 8), 7)), p)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stride,padding,k", [(1, 1, 3), (2, 0, 1), (2, 1, 3)])
def test_conv_gradients(seed, stride, padding, k):
    x = Tensor(rand((2, 3, 6, 6), seed), requires_grad=True)
    p = conv_params(2, 3, k, seed + 10, stride=stride, padding=padding)
    out_shape = conv2d(x, p).shape
    w = Tensor(rand(out_shape, seed + 20))

    def build():
        return sum_all(mul(conv2d(x, p), w))

    assert check_gradients(build, [x, p.weight, p.bias]) < DEFAULT_TOL


@pytest.mark.parametrize(
    "n,cin,h,w,cout,k,stride,padding",
    [
        pytest.param(2, 2, 7, 5, 3, 3, 2, 0, id="odd-3x3-s2-p0"),
        pytest.param(2, 2, 7, 5, 3, 3, 2, 1, id="odd-3x3-s2-p1"),
        pytest.param(2, 2, 7, 5, 3, 1, 2, 0, id="odd-1x1-s2"),
        pytest.param(1, 3, 8, 6, 4, 3, 2, 1, id="stem-cin3-batch1"),
        pytest.param(1, 2, 5, 4, 3, 3, 1, 1, id="3x3-s1-batch1"),
        pytest.param(1, 4, 3, 5, 2, 1, 1, 0, id="1x1-s1-batch1"),
    ],
)
def test_conv_gradients_odd_shapes(n, cin, h, w, cout, k, stride, padding):
    x = Tensor(rand((n, cin, h, w), 30), requires_grad=True)
    p = conv_params(cout, cin, k, 31, stride=stride, padding=padding)
    w_out = Tensor(rand(conv2d(x, p).shape, 32))

    def build():
        return sum_all(mul(conv2d(x, p), w_out))

    assert check_gradients(build, [x, p.weight, p.bias]) < DEFAULT_TOL


def conv_reference(x, weight, bias, stride, padding):
    """Direct cross-correlation in float64: one einsum per kernel tap."""
    n, _, h, w = x.shape
    cout, _, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.astype(np.float64), pad)
    out = np.zeros((n, cout, oh, ow)) + bias.astype(np.float64)[None, :, None, None]
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            out += np.einsum("oc,ncyx->noyx", weight[:, :, i, j].astype(np.float64), window)
    return out


def conv_reference_grads(x, weight, g, stride, padding):
    """Weight, bias and input gradients in float64: one einsum per tap."""
    _, _, h, w = x.shape
    _, _, kh, kw = weight.shape
    _, _, oh, ow = g.shape
    g = g.astype(np.float64)
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.astype(np.float64), pad)
    gxp = np.zeros_like(xp)
    gw = np.zeros(weight.shape)
    for i in range(kh):
        for j in range(kw):
            window = (slice(None), slice(None), slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))
            gw[:, :, i, j] = np.einsum("noyx,ncyx->oc", g, xp[window])
            gxp[window] += np.einsum("oc,noyx->ncyx", weight[:, :, i, j].astype(np.float64), g)
    return gw, g.sum(axis=(0, 2, 3)), gxp[:, :, padding : padding + h, padding : padding + w]


def test_conv_float32_matches_reference_on_desk_shapes(monkeypatch):
    net_cfg = config.network_config(config.load_config(config.packaged_config_path("desk")))
    params = network.init_params(net_cfg, 0)
    calls = []

    def recording_conv2d(x, p):
        calls.append((x.data, p))
        return conv2d(x, p)

    monkeypatch.setattr(network, "conv2d", recording_conv2d)
    monkeypatch.setattr(pointflow, "conv2d", recording_conv2d)
    image = Tensor(rand((2, 3) + tuple(net_cfg.input_size), 41).astype(np.float32))
    network.pfnet_forward(image, params, net_cfg)
    assert len(calls) == sum(name.endswith(".weight") for name in params)
    for k, (xd, p) in enumerate(calls):
        x = Tensor(xd, requires_grad=True)
        p.weight.grad = p.bias.grad = None
        with Tape() as tape:
            out = conv2d(x, p).data
        assert out.dtype == np.float32
        ref = conv_reference(xd, p.weight.data, p.bias.data, p.stride, p.padding)
        err = np.abs(out - ref).max() / np.abs(ref).max()
        assert err <= 1e-5, (xd.shape, p.weight.shape, p.stride, p.padding, err)
        g = rand(out.shape, 100 + k).astype(np.float32)
        ((_, backward),) = tape.entries
        backward(g)
        refs = conv_reference_grads(xd, p.weight.data, g, p.stride, p.padding)
        for name, got, want in zip(("weight", "bias", "input"), (p.weight.grad, p.bias.grad, x.grad), refs):
            assert got.dtype == np.float32
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= 1e-5, (name, xd.shape, p.weight.shape, p.stride, p.padding, err)


@pytest.mark.parametrize("stride,h,w,cols", [(1, 6, 5, 40), (2, 7, 6, 15)])
def test_conv_gradients_across_column_tiles(monkeypatch, stride, h, w, cols):
    n, cin, cout = 2, 3, 2
    lq = n * -(-(h + 2) // stride) * -(-(w + 2) // stride)
    rows = cout * (9 if stride == 1 else 4)  # stacked rows of phase (0, 0)
    # a block of `cols` columns splits the extended grid into three or more
    # tiles, the last one narrower
    assert lq > 2 * cols and lq % cols
    monkeypatch.setattr(ops, "_BLOCK", rows * cols)
    x = Tensor(rand((n, cin, h, w), 60), requires_grad=True)
    p = conv_params(cout, cin, 3, 61, stride=stride, padding=1)
    w_out = Tensor(rand(conv2d(x, p).shape, 62))

    def build():
        return sum_all(mul(conv2d(x, p), w_out))

    assert check_gradients(build, [x, p.weight, p.bias]) < DEFAULT_TOL


def held_arrays(fn):
    """Arrays a closure keeps alive beyond the tensors it was handed, each
    counted once by the array that owns its memory."""
    owners = {}
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return list(owners.values())


def recorded_backward(x, p):
    with Tape() as tape:
        conv2d(x, p)
    ((_, backward),) = tape.entries
    return backward


@pytest.mark.parametrize("stride,h,w", [(1, 9, 7), (2, 8, 6)])
def test_conv3x3_tape_keeps_one_padded_input(stride, h, w):
    x = Tensor(rand((2, 4, h, w), 50), requires_grad=True)
    p = conv_params(5, 4, 3, 51, stride=stride, padding=1)
    held = held_arrays(recorded_backward(x, p))
    padded_bytes = 2 * 4 * (h + 2) * (w + 2) * x.data.itemsize
    assert sum(a.nbytes for a in held) <= padded_bytes + p.weight.data.nbytes


def test_conv1x1_tape_keeps_nothing_larger_than_input():
    x = Tensor(rand((2, 4, 9, 7), 52), requires_grad=True)
    p = conv_params(6, 4, 1, 53)
    held = held_arrays(recorded_backward(x, p))
    assert held and max(a.nbytes for a in held) <= x.data.nbytes


def backward_peak(backward, g, params):
    for t in params:
        t.grad = None
    tracemalloc.start()
    try:
        backward(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conv_backward_peak_bounded_at_desk_head_shape(monkeypatch):
    # the fused head conv of desk.cfg: 256 -> 64 channels on 16x16 maps
    x = Tensor(rand((8, 256, 16, 16), 70).astype(np.float32), requires_grad=True)
    weight = Tensor(rand((64, 256, 3, 3), 71).astype(np.float32), requires_grad=True)
    p = ConvParams(weight, Tensor(np.zeros(64, dtype=np.float32), requires_grad=True), padding=1)
    backward = recorded_backward(x, p)
    g = rand((8, 64, 16, 16), 72).astype(np.float32)
    rows, lq = 9 * 64, 8 * 18 * 18
    # the peak stays within that of 16-column tiles plus twice the block
    # budget (the block, and as much again for slack); a single untiled
    # [9 * cout, lq] block exceeds that bound
    bound = 2 * 4 * ops._BLOCK
    monkeypatch.setattr(ops, "_BLOCK", rows * 16)
    bound += backward_peak(backward, g, (x, p.weight, p.bias))
    monkeypatch.undo()
    assert backward_peak(backward, g, (x, p.weight, p.bias)) <= bound
    monkeypatch.setattr(ops, "_BLOCK", rows * lq)
    assert backward_peak(backward, g, (x, p.weight, p.bias)) > bound


# ---------------------------------------------------------------------------
# channel_norm


def test_channel_norm_standardizes():
    x = Tensor(rand((4, 3, 5, 5), 8, -3, 7))
    out = channel_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))).data
    assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-6
    assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4


def test_channel_norm_constant_channel_is_zero():
    x = Tensor(np.full((2, 1, 3, 3), 4.2))
    out = channel_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1))).data
    assert np.allclose(out, 0.0)


def test_channel_norm_affine():
    x = Tensor(rand((4, 2, 6, 6), 9))
    out = channel_norm(x, Tensor(np.full(2, 2.0)), Tensor(np.ones(2))).data
    assert np.abs(out.mean(axis=(0, 2, 3)) - 1.0).max() < 1e-6
    assert np.abs(out.std(axis=(0, 2, 3)) - 2.0).max() < 1e-3


def test_channel_norm_single_element_rejected():
    with pytest.raises(ValueError):
        channel_norm(Tensor(np.ones((1, 2, 1, 1))), Tensor(np.ones(2)), Tensor(np.zeros(2)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_channel_norm_gradients(seed):
    x = Tensor(rand((2, 3, 4, 4), seed), requires_grad=True)
    gamma = Tensor(rand((3,), seed + 1, 0.5, 1.5), requires_grad=True)
    beta = Tensor(rand((3,), seed + 2), requires_grad=True)
    w = Tensor(rand((2, 3, 4, 4), seed + 3))

    def build():
        return sum_all(mul(channel_norm(x, gamma, beta), w))

    assert check_gradients(build, [x, gamma, beta]) < DEFAULT_TOL


# ---------------------------------------------------------------------------
# adaptive max pool


def test_adaptive_max_pool_identity():
    x = Tensor(rand((1, 1, 3, 4), 10))
    pooled, idx = adaptive_max_pool(x, (3, 4))
    assert np.array_equal(pooled.data, x.data)
    assert np.array_equal(idx[0, 0].ravel(), np.arange(12))


def test_adaptive_max_pool_quadrants():
    x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    pooled, idx = adaptive_max_pool(x, (2, 2))
    assert np.array_equal(pooled.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])
    assert np.array_equal(idx[0, 0].ravel(), [5, 7, 13, 15])


def test_adaptive_max_pool_tie_break_smallest_index():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    pooled, idx = adaptive_max_pool(x, (2, 2))
    assert np.array_equal(pooled.data[0, 0], np.zeros((2, 2)))
    assert np.array_equal(idx[0, 0].ravel(), [0, 2, 8, 10])


def test_adaptive_max_pool_regions_cover_input():
    # uneven split: every input index must appear in some region
    h, w, kh, kw = 5, 7, 2, 3
    x = Tensor(rand((1, 1, h, w), 11))
    seen = np.zeros((h, w), dtype=bool)
    from pfnet.ops import _adaptive_edges

    rs, re = _adaptive_edges(h, kh)
    cs, ce = _adaptive_edges(w, kw)
    for i in range(kh):
        for j in range(kw):
            assert re[i] > rs[i] and ce[j] > cs[j]
            seen[rs[i] : re[i], cs[j] : ce[j]] = True
    assert seen.all()


def test_adaptive_max_pool_too_large():
    with pytest.raises(ValueError):
        adaptive_max_pool(Tensor(np.zeros((1, 1, 2, 2))), (3, 2))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("out_hw", [(2, 2), (3, 5)])
def test_adaptive_max_pool_gradients(seed, out_hw):
    x = Tensor(rand((2, 2, 6, 7), seed), requires_grad=True)
    w = Tensor(rand((2, 2) + out_hw, seed + 5))

    def build():
        pooled, _ = adaptive_max_pool(x, out_hw)
        return sum_all(mul(pooled, w))

    assert check_gradients(build, [x]) < DEFAULT_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adaptive_avg_pool_gradients(seed):
    x = Tensor(rand((2, 2, 5, 6), seed), requires_grad=True)
    w = Tensor(rand((2, 2, 2, 3), seed + 5))

    def build():
        return sum_all(mul(adaptive_avg_pool(x, (2, 3)), w))

    assert check_gradients(build, [x]) < DEFAULT_TOL


def test_adaptive_avg_pool_quadrant_means():
    blocks = np.zeros((1, 1, 4, 4))
    blocks[0, 0, :2, :2] = 1.0
    blocks[0, 0, :2, 2:] = 2.0
    blocks[0, 0, 2:, :2] = 3.0
    blocks[0, 0, 2:, 2:] = 4.0
    out = adaptive_avg_pool(Tensor(blocks), (2, 2)).data
    assert np.array_equal(out[0, 0], [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# box average pool


def test_box_avg_constant_interior():
    x = Tensor(np.full((1, 1, 5, 5), 3.0))
    out = box_avg_pool(x, 3).data
    assert out[0, 0, 2, 2] == pytest.approx(3.0)
    # borders divide by k^2 with zero padding
    assert out[0, 0, 0, 0] == pytest.approx(3.0 * 4 / 9)


def test_box_avg_single_center_impulse():
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 1.0
    out = box_avg_pool(Tensor(x), 3).data
    assert out[0, 0, 1, 1] == pytest.approx(1.0 / 9.0)


def test_box_avg_zeros():
    out = box_avg_pool(Tensor(np.zeros((1, 2, 4, 4))), 3).data
    assert np.array_equal(out, np.zeros((1, 2, 4, 4)))


def test_box_avg_even_k_rejected():
    with pytest.raises(ValueError):
        box_avg_pool(Tensor(np.zeros((1, 1, 4, 4))), 4)


def test_box_avg_k_exceeding_map_rejected():
    with pytest.raises(ValueError):
        box_avg_pool(Tensor(np.zeros((1, 1, 2, 2))), 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [3, 5])
def test_box_avg_gradients(seed, k):
    x = Tensor(rand((1, 2, 6, 6), seed), requires_grad=True)
    w = Tensor(rand((1, 2, 6, 6), seed + 5))

    def build():
        return sum_all(mul(box_avg_pool(x, k), w))

    assert check_gradients(build, [x]) < DEFAULT_TOL


# ---------------------------------------------------------------------------
# bilinear resize


def test_resize_same_size_is_identity():
    x = Tensor(rand((1, 2, 5, 7), 12))
    out = bilinear_resize(x, (5, 7)).data
    assert np.abs(out - x.data).max() < 1e-12


def test_resize_same_size_returns_input_and_passes_gradient():
    x = Tensor(rand((2, 3, 5, 7), 14), requires_grad=True)
    w = Tensor(rand((2, 3, 5, 7), 15))
    assert bilinear_resize(x, (5, 7)) is x
    with Tape() as tape:
        loss = sum_all(mul(bilinear_resize(x, (5, 7)), w))
    reverse_accumulate(tape, loss)
    # the identity interpolation matrices passed the gradient exactly
    assert np.array_equal(x.grad, w.data)


def test_resize_constant_map():
    x = Tensor(np.full((1, 1, 3, 3), 2.5))
    out = bilinear_resize(x, (7, 5)).data
    assert np.allclose(out, 2.5)


def test_resize_grid_center_values():
    x = Tensor(np.array([0.0, 2.0]).reshape(1, 1, 2, 1))
    out = bilinear_resize(x, (4, 1)).data
    assert np.allclose(out[0, 0, :, 0], [0.0, 0.5, 1.5, 2.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("out_hw", [(8, 8), (3, 5), (4, 4)])
def test_resize_gradients(seed, out_hw):
    x = Tensor(rand((2, 2, 4, 4), seed), requires_grad=True)
    w = Tensor(rand((2, 2) + out_hw, seed + 5))

    def build():
        return sum_all(mul(bilinear_resize(x, out_hw), w))

    assert check_gradients(build, [x]) < DEFAULT_TOL


# ---------------------------------------------------------------------------
# bilinear point sampling


def test_point_sample_at_pixel_centers_is_exact():
    x = Tensor(rand((2, 3, 4, 5), 13))
    pts = np.broadcast_to(flat_to_points(np.arange(20), 4, 5), (2, 20, 2))
    out = point_sample_batched(x, pts).data
    expected = x.data.reshape(2, 3, 20).transpose(0, 2, 1)
    assert np.array_equal(out, expected)  # bitwise


def test_point_sample_constant_map():
    x = Tensor(np.full((1, 2, 3, 3), 1.25))
    pts = np.array([[[0.0, 0.0], [1.0, 1.0], [0.37, 0.91]]])
    assert np.allclose(point_sample_batched(x, pts).data, 1.25)


def test_point_sample_center_mean():
    x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
    out = point_sample_batched(x, np.array([[[0.5, 0.5]]])).data
    assert out[0, 0, 0] == pytest.approx(1.5)


def test_point_sample_rejects_outside_coordinates():
    x = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        point_sample_batched(x, np.array([[[0.5, 1.2]]]))
    with pytest.raises(ValueError):  # [K, 2] without the batch axis
        point_sample_batched(x, np.array([[0.5, 0.5]]))


def test_flat_to_points_are_row_major_cell_centers():
    for h, w in ((1, 1), (3, 5), (4, 4), (7, 2)):
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        expected = np.stack([(ii.ravel() + 0.5) / h, (jj.ravel() + 0.5) / w], axis=1)
        assert np.array_equal(flat_to_points(np.arange(h * w), h, w), expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_sample_gradients(seed):
    x = Tensor(rand((2, 3, 5, 5), seed), requires_grad=True)
    pts = np.random.Generator(np.random.PCG64(seed + 40)).uniform(0.05, 0.95, (2, 6, 2))
    w = Tensor(rand((2, 6, 3), seed + 50))

    def build():
        return sum_all(mul(point_sample_batched(x, pts), w))

    assert check_gradients(build, [x]) < DEFAULT_TOL


# ---------------------------------------------------------------------------
# top-K


def test_topk_all_indices():
    score = Tensor(rand((1, 1, 3, 3), 14))
    idx = topk_select(score, 9)
    assert sorted(idx[0].tolist()) == list(range(9))


def test_topk_tie_break():
    score = Tensor(np.array([0.9, 0.1, 0.9, 0.5]).reshape(1, 1, 2, 2))
    idx = topk_select(score, 2)
    assert idx[0].tolist() == [0, 2]


def test_topk_matches_exhaustive_sort():
    score = Tensor(rand((1, 1, 8, 8), 15))
    idx = topk_select(score, 5)
    flat = score.data.ravel()
    oracle = sorted(range(64), key=lambda i: (-flat[i], i))[:5]
    assert idx[0].tolist() == oracle


def test_topk_order_independent_of_traversal():
    vals = rand((1, 1, 6, 6), 16)
    a = topk_select(Tensor(vals), 7)
    b = topk_select(Tensor(vals.copy()), 7)
    assert np.array_equal(a, b)


def test_topk_k_too_large():
    with pytest.raises(ValueError):
        topk_select(Tensor(np.zeros((1, 1, 2, 2))), 5)


# ---------------------------------------------------------------------------
# scatter


def test_scatter_empty_points_is_identity():
    base = Tensor(rand((2, 2, 3, 3), 17))
    out = scatter_points_batched(base, np.zeros((2, 0, 2)), Tensor(np.zeros((2, 0, 2))))
    assert np.array_equal(out.data, base.data)


def test_scatter_single_cell():
    base = Tensor(np.zeros((1, 2, 3, 3)))
    pts = flat_to_points(np.array([[4]]), 3, 3)  # center of cell (1, 1)
    out = scatter_points_batched(base, pts, Tensor(np.array([[[5.0, 6.0]]])))
    expected = np.zeros((1, 2, 3, 3))
    expected[0, :, 1, 1] = [5.0, 6.0]
    assert np.array_equal(out.data, expected)


def test_scatter_collision_last_write_wins():
    base = Tensor(np.zeros((1, 1, 2, 2)))
    pts = np.array([[[0.2, 0.2], [0.05, 0.05]]])  # both map to cell (0, 0)
    out = scatter_points_batched(base, pts, Tensor(np.array([[[1.0], [2.0]]])))
    assert out.data[0, 0, 0, 0] == 2.0


def test_scatter_row_count_mismatch():
    base = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        scatter_points_batched(base, np.array([[[0.5, 0.5]]]), Tensor(np.zeros((1, 2, 1))))
    with pytest.raises(ValueError):  # batch sizes disagree
        scatter_points_batched(base, np.zeros((2, 1, 2)), Tensor(np.zeros((2, 1, 1))))


def test_scatter_then_sample_roundtrip():
    # distinct cells, points at those cells' centers: read back exactly
    base = Tensor(rand((1, 3, 4, 4), 18))
    pts = np.array([[[0.125, 0.125], [0.625, 0.375], [0.875, 0.875]]])
    values = Tensor(rand((1, 3, 3), 19))
    out = scatter_points_batched(base, pts, values)
    back = point_sample_batched(out, pts)
    assert np.array_equal(back.data, values.data)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scatter_gradients(seed):
    base = Tensor(rand((1, 2, 4, 4), seed), requires_grad=True)
    values = Tensor(rand((1, 3, 2), seed + 5), requires_grad=True)
    pts = np.array([[[0.1, 0.1], [0.6, 0.6], [0.6, 0.62]]])  # last two collide
    w = Tensor(rand((1, 2, 4, 4), seed + 9))

    def build():
        return sum_all(mul(scatter_points_batched(base, pts, values), w))

    assert check_gradients(build, [base, values]) < DEFAULT_TOL


def test_scatter_batched_matches_single():
    # each row of a batched scatter equals the scatter of its batch-of-1 slice
    base2 = Tensor(rand((2, 2, 4, 4), 20))
    pts2 = np.random.Generator(np.random.PCG64(21)).uniform(0, 1, (2, 3, 2))
    pts2[1, 2] = pts2[1, 0]  # a collision in one item only
    vals2 = Tensor(rand((2, 3, 2), 22))
    out = scatter_points_batched(base2, pts2, vals2)
    for n in range(2):
        single = scatter_points_batched(
            Tensor(base2.data[n : n + 1]), pts2[n : n + 1], Tensor(vals2.data[n : n + 1])
        )
        assert np.array_equal(out.data[n], single.data[0])

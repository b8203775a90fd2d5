import tracemalloc
import types

import numpy as np
import pytest

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
    resize_conv3x3,
    scatter_points_batched,
    topk_select,
)
from pfnet import config, network, ops, pointflow, tensor
from pfnet.tensor import Tape, Tensor, channel_slice, mul, relu, reverse_accumulate

from gradcheck import DEFAULT_TOL, check_gradients, sum_all


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


@pytest.mark.parametrize(
    "stride, padding, match",
    [(0, 0, "conv stride 0 must be >= 1"), (1, -1, "conv padding -1 must be >= 0")],
    ids=["stride-0", "padding-minus-1"],
)
def test_conv_rejects_bad_stride_or_padding(stride, padding, match):
    # stride 0 raised ZeroDivisionError, padding -1 a numpy broadcast error
    with pytest.raises(ValueError, match=match):
        conv2d(Tensor(rand((1, 1, 4, 4), 7)), conv_params(1, 1, 3, 8, stride, padding))


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


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def resize_conv_reference(x, weight, out_hw):
    """Float64 output, and a function of the output gradient returning the
    weight and input gradients, of ``conv2d(bilinear_resize(x, out_hw))``
    with zero bias and padding 1, through ``conv_reference``."""
    x64 = Tensor(x.astype(np.float64), requires_grad=True)
    with Tape() as tape:
        resized = bilinear_resize(x64, out_hw).data
    ((_, resize_backward),) = tape.entries

    def grads(g):
        gw, _, gr = conv_reference_grads(resized, weight, g, 1, 1)
        resize_backward(gr)
        return gw, x64.grad

    return conv_reference(resized, weight, np.zeros(weight.shape[0]), 1, 1), grads


def test_conv_float32_matches_reference_on_desk_shapes(monkeypatch):
    net_cfg = config.network_config(config.load_config(config.packaged_config_path("desk")))
    params = network.init_params(net_cfg, 0)
    calls, folds = [], []

    def recording_conv2d(x, p):
        calls.append((x.data, p))
        return conv2d(x, p)

    def recording_resize_conv3x3(x, weight, out_hw):
        folds.append((x.data, weight.data, out_hw))
        return resize_conv3x3(x, weight, out_hw)

    monkeypatch.setattr(network, "conv2d", recording_conv2d)
    monkeypatch.setattr(pointflow, "conv2d", recording_conv2d)
    monkeypatch.setattr(network, "resize_conv3x3", recording_resize_conv3x3)
    image = Tensor(rand((2, 3) + net_cfg.level_size(0), 41).astype(np.float32))
    network.pfnet_forward(image, params, net_cfg)
    assert len(calls) == sum(name.endswith(".weight") for name in params)
    assert len(folds) == 3  # head levels 3, 4 and 5
    for k, (xd, p) in enumerate(calls):
        # weights are re-wrapped as leaves: the head's level-2 weight is a
        # channel_slice output made without a tape, which backward skips
        x = Tensor(xd, requires_grad=True)
        p = ConvParams(Tensor(p.weight.data, requires_grad=True), Tensor(p.bias.data, requires_grad=True), p.stride, p.padding)
        with Tape() as tape:
            out = conv2d(x, p).data
        assert out.dtype == np.float32
        ref = conv_reference(xd, p.weight.data, p.bias.data, p.stride, p.padding)
        err = rel_err(out, ref)
        assert err <= 1e-5, (xd.shape, p.weight.shape, p.stride, p.padding, err)
        g = rand(out.shape, 100 + k).astype(np.float32)
        ((_, backward),) = tape.entries
        backward(g)
        refs = conv_reference_grads(xd, p.weight.data, g, p.stride, p.padding)
        for name, got, want in zip(("weight", "bias", "input"), (p.weight.grad, p.bias.grad, x.grad), refs):
            assert got.dtype == np.float32
            err = rel_err(got, want)
            assert err <= 1e-5, (name, xd.shape, p.weight.shape, p.stride, p.padding, err)
    for k, (xd, wd, out_hw) in enumerate(folds):
        x, weight = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
        with Tape() as tape:
            out = resize_conv3x3(x, weight, out_hw).data
        assert out.dtype == np.float32
        ref, ref_grads = resize_conv_reference(xd, wd, out_hw)
        assert rel_err(out, ref) <= 1e-5, (xd.shape, out_hw, rel_err(out, ref))
        g = rand(out.shape, 200 + k).astype(np.float32)
        ((_, backward),) = tape.entries
        backward(g)
        for name, got, want in zip(("weight", "input"), (weight.grad, x.grad), ref_grads(g)):
            assert got.dtype == np.float32
            err = rel_err(got, want)
            assert err <= 1e-5, (name, xd.shape, out_hw, err)


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


def closure_objects(fn):
    """Every object a closure keeps alive through its cells, looking into
    lists, tuples and the closures of nested functions."""
    seen, found = set(), []
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return found


def held_arrays(fn):
    """Arrays a closure keeps alive, each counted once by the array that
    owns its memory."""
    owners = {}
    for obj in closure_objects(fn):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
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


def assert_keeps_input_and_nothing_as_large(backward, xd):
    """The closure keeps the array owning the input's data, and no other
    array as large: not a padded or channel-major copy of the input."""
    while isinstance(xd.base, np.ndarray):
        xd = xd.base
    held = held_arrays(backward)
    assert any(a is xd for a in held)
    assert all(a.nbytes < xd.nbytes for a in held if a is not xd), [a.shape for a in held]


@pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (3, 2, 1), (3, 1, 0), (1, 2, 0)])
def test_conv_tape_keeps_input_not_its_padded_copy(k, stride, padding):
    x = Tensor(rand((2, 4, 9, 7), 54), requires_grad=True)
    p = conv_params(5, 4, k, 55, stride=stride, padding=padding)
    assert_keeps_input_and_nothing_as_large(recorded_backward(x, p), x.data)


def test_resize_conv3x3_tape_keeps_input_not_its_channel_major_copy():
    x = Tensor(rand((2, 4, 5, 6), 56), requires_grad=True)
    weight = Tensor(rand((3, 4, 3, 3), 57), requires_grad=True)
    with Tape() as tape:
        resize_conv3x3(x, weight, (9, 11))
    ((_, backward),) = tape.entries
    assert_keeps_input_and_nothing_as_large(backward, x.data)


def assert_keeps_no_weight_copy(backward, weight):
    """Every array the closure keeps with as many elements as the weight it
    was given shares that weight's memory: no transposed copy of it."""
    for a in held_arrays(backward):
        assert a.size != weight.size or np.shares_memory(a, weight), a.shape


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_tape_keeps_the_weight_it_was_given(stride):
    x = Tensor(rand((2, 4, 9, 7), 58), requires_grad=True)
    p = conv_params(5, 4, 3, 59, stride=stride, padding=1)
    assert_keeps_no_weight_copy(recorded_backward(x, p), p.weight.data)


def test_conv_and_resize_conv3x3_keep_a_channel_slice_of_their_weight():
    # the head's shape: each level reads its own channel slice of one weight
    x = Tensor(rand((2, 4, 5, 6), 60), requires_grad=True)
    weight = Tensor(rand((3, 8, 3, 3), 61), requires_grad=True)
    bias = Tensor(rand((3,), 62), requires_grad=True)
    with Tape() as tape:
        level = channel_slice(weight, 0, 4)
        conv2d(x, ConvParams(level, bias, padding=1))
        upper = channel_slice(weight, 4, 8)
        resize_conv3x3(x, upper, (9, 11))
    (_, _), (_, conv_backward), (_, _), (_, resize_backward) = tape.entries
    assert_keeps_no_weight_copy(conv_backward, level.data)
    assert_keeps_no_weight_copy(resize_backward, upper.data)


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
    # a wide conv at desk scale: 256 -> 64 channels on 16x16 maps, batch 8
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


def test_conv_stride2_backward_peak_holds_one_input_gradient():
    # a stride-2 3x3 conv, 16 -> 32 channels from 64x64 maps, batch 8
    x = Tensor(rand((8, 16, 64, 64), 73).astype(np.float32), requires_grad=True)
    weight = Tensor(rand((32, 16, 3, 3), 74).astype(np.float32), requires_grad=True)
    p = ConvParams(weight, Tensor(np.zeros(32, dtype=np.float32), requires_grad=True), stride=2, padding=1)
    backward = recorded_backward(x, p)
    g = rand((8, 32, 32, 32), 75).astype(np.float32)
    # the rebuilt polyphase buffer [4, 16, 8 * 33 * 33], which turns into
    # the input gradient in the padded layout, the NCHW input gradient, and
    # one block budget for the rest; a padded NCHW copy of the gradient
    # between the two exceeds that
    buf = 4 * 16 * 8 * 33 * 33 * 4
    assert backward_peak(backward, g, (x, p.weight, p.bias)) <= buf + x.data.nbytes + 4 * ops._BLOCK


def untiled_conv2d(xd, wd, bd, s, padding):
    """conv2d's forward for a 3x3 or strided conv as it was before column
    tiles: each tap one GEMM over every column of the extended output."""
    n, cin, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    oh = (h + 2 * padding - kh) // s + 1
    ow = (w + 2 * padding - kw) // s + 1
    hq = -(-(h + 2 * padding) // s)
    wq = -(-(w + 2 * padding) // s)
    lq = n * hq * wq
    xp = np.zeros((cin, n, s * hq, s * wq), dtype=xd.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = xd.transpose(1, 0, 2, 3)
    buf = xp.reshape(cin, n, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4).reshape(s * s, cin, lq)
    taps = [(i, j, (i % s) * s + j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    m = lq - taps[-1][3]
    wt = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))
    ext = np.empty((cout, lq), dtype=xd.dtype)
    acc, tmp = ext[:, :m], np.empty((cout, m), dtype=xd.dtype)
    for t, (i, j, ph, d) in enumerate(taps):
        np.matmul(wt[i, j], buf[ph, :, d : d + m], out=tmp if t else acc)
        if t:
            acc += tmp
    out = np.empty((n, cout, oh, ow), dtype=xd.dtype)
    np.add(ext.reshape(cout, n, hq, wq)[:, :, :oh, :ow].transpose(1, 0, 2, 3), bd[:, None, None], out=out)
    return out


def assert_conv_matches_untiled(x_shape, w_shape, stride, padding, seed):
    xd = rand(x_shape, seed).astype(np.float32)
    wd = rand(w_shape, seed + 1).astype(np.float32)
    bd = rand(w_shape[:1], seed + 2).astype(np.float32)
    got = conv2d(Tensor(xd), ConvParams(Tensor(wd), Tensor(bd), stride, padding)).data
    assert got.tobytes() == untiled_conv2d(xd, wd, bd, stride, padding).tobytes(), (x_shape, w_shape, stride)


def test_conv_forward_matches_untiled_bitwise_at_stage3_256px():
    # 2294 extended columns: a 2048-column tile would leave a 246-column
    # remainder, small enough for BLAS to take another kernel
    assert_conv_matches_untiled((8, 32, 32, 32), (64, 32, 3, 3), 2, 1, 110)


def test_conv_forward_peak_bounded_at_paper_head_shape():
    # the fused head's level-2 conv at 256 px: 64 channels on 64x64, batch 8
    n, c, h, w = 8, 64, 64, 64
    x = Tensor(rand((n, c, h, w), 111).astype(np.float32), requires_grad=True)
    p = ConvParams(Tensor(rand((c, c, 3, 3), 112).astype(np.float32), requires_grad=True), Tensor(np.zeros(c, np.float32)), padding=1)
    tracemalloc.start()
    try:
        with Tape():
            conv2d(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the padded input the tape keeps, the extended output, the output and
    # its finiteness mask, plus four tiles; a tap sum as wide as the
    # extended output exceeds that
    padded = ext = c * n * (h + 2) * (w + 2) * 4
    out = n * c * h * w * 4
    assert peak <= padded + ext + out + out // 4 + 4 * 4 * ops._BLOCK


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


def channel_norm_reference(x, gamma, beta, g, eps=1e-5):
    """channel_norm's forward and adjoint as first written, one full-size
    temporary per step: (out, grad x, grad gamma, grad beta)."""
    c = x.shape[1]
    axes = (0, 2, 3)
    mu = x.mean(axis=axes, keepdims=True)
    xhat = x - mu
    var = (xhat ** 2).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    g4 = gamma.reshape(1, c, 1, 1)
    out = g4 * xhat + beta.reshape(1, c, 1, 1)
    dxhat = g * g4
    m1 = dxhat.mean(axis=axes, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
    return out, inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=axes), g.sum(axis=axes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (8, 16, 8, 8), (1, 5, 3, 7), (4, 1, 2, 2), (8, 64, 16, 16)])
def test_channel_norm_matches_reference_bitwise(shape, dtype):
    seed = sum(shape)
    xd = rand(shape, seed, -3, 5).astype(dtype)
    gd = rand(shape[1:2], seed + 1, 0.5, 1.5).astype(dtype)
    bd = rand(shape[1:2], seed + 2).astype(dtype)
    # a transposed-layout output gradient as well as a row-major one
    gs = [rand(shape, seed + 3).astype(dtype), rand(shape[::-1], seed + 4).astype(dtype).T]
    for g in gs:
        x, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in (xd, gd, bd))
        with Tape() as tape:
            out = channel_norm(x, gamma, beta)
        ((_, backward),) = tape.entries
        backward(g)
        for got, want in zip((out.data, x.grad, gamma.grad, beta.grad), channel_norm_reference(xd, gd, bd, g)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# activations remade in backward


@pytest.mark.parametrize("head,remade", [("conv3x3", 2), ("resize_conv3x3", 2), ("conv1x1_relu_conv1x1", 5)])
def test_gradients_through_remade_activations(head, remade):
    # the norm, relu and 1x1 outputs are remade in backward
    x = Tensor(rand((2, 3, 5, 6), 130), requires_grad=True)
    gamma = Tensor(rand((3,), 131, 0.5, 1.5), requires_grad=True)
    beta = Tensor(rand((3,), 132), requires_grad=True)
    c3, a, b = conv_params(4, 3, 3, 133, padding=1), conv_params(4, 3, 1, 135), conv_params(5, 4, 1, 137)
    w_rc = Tensor(rand((4, 3, 3, 3), 139), requires_grad=True)
    fn, leaves = {
        "conv3x3": (lambda h: conv2d(h, c3), [c3.weight, c3.bias]),
        "resize_conv3x3": (lambda h: resize_conv3x3(h, w_rc, (9, 11)), [w_rc]),
        "conv1x1_relu_conv1x1": (lambda h: conv2d(relu(conv2d(h, a)), b), [a.weight, a.bias, b.weight, b.bias]),
    }[head]
    w_out = Tensor(rand(fn(x).shape, 141))

    def build():
        return sum_all(mul(fn(relu(channel_norm(x, gamma, beta))), w_out))

    with Tape() as tape:
        build()
    assert sum(slot.remake is not None for slot, _ in tape.entries) == remade
    assert check_gradients(build, [x, gamma, beta] + leaves, max_probes=40) < DEFAULT_TOL


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


def adaptive_max_pool_loop(x, out_hw):
    """Per-region reference for ``adaptive_max_pool``: values, flat argmax."""
    n, c, h, w = x.shape
    kh, kw = out_hw
    rs, re = ops._adaptive_edges(h, kh)
    cs, ce = ops._adaptive_edges(w, kw)
    pooled = np.empty((n, c, kh, kw), dtype=x.dtype)
    indices = np.empty((n, c, kh, kw), dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            rw = ce[j] - cs[j]
            flat = x[:, :, rs[i] : re[i], cs[j] : ce[j]].reshape(n, c, -1)
            am = flat.argmax(axis=2)
            pooled[:, :, i, j] = np.take_along_axis(flat, am[:, :, None], axis=2)[:, :, 0]
            indices[:, :, i, j] = (rs[i] + am // rw) * w + (cs[j] + am % rw)
    return pooled, indices


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adaptive_max_pool_matches_region_loop_bitwise(dtype):
    gen = np.random.Generator(np.random.PCG64(30))
    shapes = [(32, 32, 14, 14), (16, 16, 14, 14), (8, 8, 8, 8)]
    for _ in range(200):
        h, w = gen.integers(1, 17), gen.integers(1, 17)
        shapes.append((h, w, gen.integers(1, h + 1), gen.integers(1, w + 1)))
    for i, (h, w, kh, kw) in enumerate(shapes):
        # odd cases draw from 3 values, so most regions hold ties
        x = gen.integers(0, 3, (2, 3, h, w)) if i % 2 else gen.uniform(-1, 1, (2, 3, h, w))
        x = x.astype(dtype)
        pooled, idx = adaptive_max_pool(Tensor(x), (kh, kw))
        want_pooled, want_idx = adaptive_max_pool_loop(x, (kh, kw))
        assert pooled.data.dtype == dtype and pooled.data.tobytes() == want_pooled.tobytes()
        assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx), (h, w, kh, kw)


def test_adaptive_max_pool_too_large():
    # both pools take an output side in [1, input side]
    x = Tensor(np.zeros((1, 1, 2, 2)))
    for pool in (adaptive_max_pool, adaptive_avg_pool):
        for out_hw, message in [((3, 2), "exceeds"), ((0, 2), "positive"), ((2, 0), "positive"), ((-1, 1), "positive")]:
            with pytest.raises(ValueError, match=message):
                pool(x, out_hw)


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


def values_and_grad(op, x, g):
    """Values of ``op(Tensor(x))`` and the input gradient of the output gradient ``g``."""
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = op(xt)
    out.grad = g
    for slot, backward in reversed(tape.entries):
        backward(slot.grad)
    return out.data, xt.grad


def assert_within_rounding(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= 8 * np.finfo(want.dtype).eps * max(np.abs(want).max(), 1.0)


def adaptive_avg_pool_loop(x, out_hw, g):
    """Per-region reference for ``adaptive_avg_pool``: values and the input
    gradient of the output gradient ``g``."""
    n, c, h, w = x.shape
    kh, kw = out_hw
    rs, re = ops._adaptive_edges(h, kh)
    cs, ce = ops._adaptive_edges(w, kw)
    pooled = np.empty((n, c, kh, kw), dtype=x.dtype)
    gx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            pooled[:, :, i, j] = x[:, :, rs[i] : re[i], cs[j] : ce[j]].mean(axis=(2, 3))
            area = (re[i] - rs[i]) * (ce[j] - cs[j])
            gx[:, :, rs[i] : re[i], cs[j] : ce[j]] += g[:, :, i : i + 1, j : j + 1] / area
    return pooled, gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adaptive_avg_pool_matches_region_loop(dtype):
    gen = np.random.Generator(np.random.PCG64(31))
    # the paper-scale context head: bins 1, 2, 3 and 6 of an 8x8 deepest level
    cases = [((8, 128, 8, 8), (b, b)) for b in (1, 2, 3, 6)]
    cases += [((2, 3, 7, 5), (3, 2)), ((1, 2, 5, 6), (5, 4)), ((2, 1, 4, 9), (1, 9))]
    for shape, out_hw in cases:
        x = gen.uniform(-1, 1, shape).astype(dtype)
        g = gen.uniform(-1, 1, shape[:2] + out_hw).astype(dtype)
        got, got_grad = values_and_grad(lambda t: adaptive_avg_pool(t, out_hw), x, g)
        want, want_grad = adaptive_avg_pool_loop(x, out_hw, g)
        assert_within_rounding(got, want)
        assert_within_rounding(got_grad, want_grad)


# ---------------------------------------------------------------------------
# box average pool


def test_box_avg_constant_interior():
    x = Tensor(np.full((1, 1, 5, 5), 3.0))
    out = box_avg_pool(x).data
    assert out[0, 0, 2, 2] == pytest.approx(3.0)
    # borders divide by 9 with zero padding
    assert out[0, 0, 0, 0] == pytest.approx(3.0 * 4 / 9)


def test_box_avg_single_center_impulse():
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 1.0
    out = box_avg_pool(Tensor(x)).data
    assert out[0, 0, 1, 1] == pytest.approx(1.0 / 9.0)


def test_box_avg_zeros():
    out = box_avg_pool(Tensor(np.zeros((1, 2, 4, 4)))).data
    assert np.array_equal(out, np.zeros((1, 2, 4, 4)))


def test_box_avg_k_exceeding_map_rejected():
    for hw in ((2, 2), (2, 5), (5, 1)):
        with pytest.raises(ValueError, match="exceeds map"):
            box_avg_pool(Tensor(np.zeros((1, 1) + hw)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("size", [3, 5])  # the smallest map the box takes, and one with an interior
def test_box_avg_gradients(seed, size):
    x = Tensor(rand((1, 2, size, size + 1), seed), requires_grad=True)
    w = Tensor(rand((1, 2, size, size + 1), seed + 5))

    def build():
        return sum_all(mul(box_avg_pool(x), w))

    assert check_gradients(build, [x]) < DEFAULT_TOL


def box_shifted_sum(a):
    """Shifted-sum reference for ``box_avg_pool``: the nine shifts of the
    zero-padded map, summed and divided by 9.  It is self-adjoint, so it is
    the reference gradient too."""
    n, c, h, w = a.shape
    ap = np.zeros((n, c, h + 2, w + 2), dtype=a.dtype)
    ap[:, :, 1 : h + 1, 1 : w + 1] = a
    acc = np.zeros_like(a)
    for i in range(3):
        for j in range(3):
            acc += ap[:, :, i : i + h, j : j + w]
    return acc / 9


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_box_avg_matches_shifted_sum(dtype):
    gen = np.random.Generator(np.random.PCG64(32))
    # the desk and 256 px gap-3 saliency grids, and small odd ones
    for shape in ((8, 1, 8, 8), (8, 1, 32, 32), (2, 3, 3, 3), (1, 2, 5, 7)):
        x = gen.uniform(0, 1, shape).astype(dtype)
        g = gen.uniform(-1, 1, shape).astype(dtype)
        got, got_grad = values_and_grad(box_avg_pool, x, g)
        assert_within_rounding(got, box_shifted_sum(x))
        assert_within_rounding(got_grad, box_shifted_sum(g))


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


def interp_matrix_loop(out_size, in_size, dtype):
    """The row loop ``ops._interp_matrix`` replaced, as its bitwise reference."""
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_interp_matrix_matches_row_loop_bitwise(dtype):
    sizes = [(o, i) for o in range(1, 41) for i in range(1, 41)] + [(256, 64)]
    for out_size, in_size in sizes:
        got = ops._interp_matrix(out_size, in_size, dtype)
        want = interp_matrix_loop(out_size, in_size, dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (out_size, in_size)


@pytest.mark.parametrize(
    "build,args",
    [
        (ops._interp_matrix, (9, 5, np.float32)),
        (ops._shifted_interp, (9, 5, np.float64)),
        (ops._region_means, (7, 3, np.float32)),
        (ops._box_band, (6, np.float64)),
        (ops._region_indices, (7, 3)),
    ],
)
def test_fixed_operators_are_built_once_and_read_only(build, args):
    a = build(*args)
    assert build(*args) is a
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0


# ---------------------------------------------------------------------------
# resize folded into a 3x3 conv


@pytest.mark.parametrize(
    "hw,out_hw",
    [
        pytest.param((1, 1), (2, 2), id="2x-from-1x1"),
        pytest.param((3, 2), (6, 4), id="2x"),
        pytest.param((2, 2), (8, 8), id="4x-from-2x2"),
        pytest.param((1, 1), (8, 8), id="8x-from-1x1"),
        pytest.param((2, 2), (16, 16), id="8x-from-2x2"),
        pytest.param((3, 5), (7, 4), id="non-integer"),
        pytest.param((6, 5), (3, 4), id="downsample"),
    ],
)
def test_resize_conv3x3_values_and_gradients(hw, out_hw):
    x = Tensor(rand((2, 3) + hw, 80), requires_grad=True)
    weight = Tensor(rand((2, 3, 3, 3), 81), requires_grad=True)
    w_out = Tensor(rand((2, 2) + out_hw, 82))
    resized = conv2d(bilinear_resize(x, out_hw), ConvParams(weight, Tensor(np.zeros(2)), padding=1))
    assert np.abs(resize_conv3x3(x, weight, out_hw).data - resized.data).max() < 1e-12

    def build():
        return sum_all(mul(resize_conv3x3(x, weight, out_hw), w_out))

    assert check_gradients(build, [x, weight]) < DEFAULT_TOL


@pytest.mark.parametrize("hw", [8, 4, 2])
def test_resize_conv3x3_float32_matches_reference_on_desk_head_shapes(hw):
    # levels 3, 4 and 5 of desk.cfg's fused head: 64 channels to 16x16
    xd = rand((8, 64, hw, hw), 90).astype(np.float32)
    wd = rand((64, 64, 3, 3), 91).astype(np.float32)
    out = resize_conv3x3(Tensor(xd), Tensor(wd), (16, 16)).data
    ref, _ = resize_conv_reference(xd, wd, (16, 16))
    assert out.dtype == np.float32
    assert rel_err(out, ref) <= 1e-5


@pytest.mark.parametrize("which", ["forward", "backward"])
def test_resize_conv3x3_peak_bounded_at_desk_head_shape(which):
    # level 3 of desk.cfg's fused head: 64 channels, 8x8 to 16x16, batch 8
    n, c, h, w = 8, 64, 8, 8
    x = Tensor(rand((n, c, h, w), 92).astype(np.float32), requires_grad=True)
    weight = Tensor(rand((c, c, 3, 3), 93).astype(np.float32), requires_grad=True)
    g = rand((n, c, 2 * h, 2 * w), 94).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            resize_conv3x3(x, weight, (2 * h, 2 * w))
        forward = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ((_, backward),) = tape.entries
    peak = forward if which == "forward" else backward_peak(backward, g, (x, weight))
    # the tap-mix z [9 * cout, n * w * h] in the forward, and its gradient
    # in the backward, is the largest array; each pass may hold it and its
    # transposed copy, plus the input's and the stacked weight's sizes and
    # z / 16 of slack.  Keeping z (or ga, 2/3 of z) alive while the next
    # GEMM runs exceeds that.
    z, xsize, wsize = 9 * c * n * h * w, c * n * h * w, 9 * c * c
    assert peak <= (2 * z + xsize + wsize + z // 16) * 4


def untiled_resize_conv3x3(xd, wd, out_hw):
    """resize_conv3x3 as it was before item chunks, each GEMM over the whole
    batch: the output, and a function from an output gradient to the
    weight and input gradients."""
    n, cin, h, w = xd.shape
    cout = wd.shape[0]
    oh, ow = out_hw
    ry = ops._shifted_interp(oh, h, xd.dtype)
    rx = ops._shifted_interp(ow, w, xd.dtype)
    ws = np.ascontiguousarray(wd.transpose(3, 0, 2, 1)).reshape(9 * cout, cin)
    xc = np.ascontiguousarray(xd.transpose(1, 0, 3, 2)).reshape(cin, n * w * h)
    z = np.matmul(ws, xc).reshape(3, cout, 3, n, w, h)
    z = z.transpose(0, 1, 3, 4, 2, 5).reshape(3 * cout * n * w, 3 * h)
    a = np.matmul(z, ry.T).reshape(3, cout, n, w, oh).transpose(2, 1, 4, 0, 3).reshape(n * cout * oh, 3 * w)
    out = np.matmul(a, rx.T).reshape(n, cout, oh, ow)

    def grads(g):
        ga = np.matmul(g.reshape(n * cout * oh, ow), rx).reshape(n, cout, oh, 3, w)
        ga = ga.transpose(3, 1, 0, 4, 2).reshape(3 * cout * n * w, oh)
        gz = np.matmul(ga, ry)
        gz = gz.reshape(3, cout, n, w, 3, h).transpose(0, 1, 4, 2, 3, 5).reshape(9 * cout, n * w * h)
        gws = np.matmul(gz, xc.T).reshape(3, cout, 3, cin)
        gx = np.matmul(ws.T, gz).reshape(cin, n, w, h).transpose(1, 0, 3, 2)
        return np.ascontiguousarray(gws.transpose(1, 3, 2, 0)), np.ascontiguousarray(gx)

    return out, grads


def assert_resize_conv3x3_matches_untiled(x_shape, cout, out_hw, seed):
    xd = rand(x_shape, seed).astype(np.float32)
    wd = rand((cout, x_shape[1], 3, 3), seed + 1).astype(np.float32)
    x, weight = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
    with Tape() as tape:
        out = resize_conv3x3(x, weight, out_hw).data
    g = rand(out.shape, seed + 2).astype(np.float32)
    ((_, backward),) = tape.entries
    backward(g)
    want, grads = untiled_resize_conv3x3(xd, wd, out_hw)
    for name, got, ref in zip(("output", "weight", "input"), (out, weight.grad, x.grad), (want,) + grads(g)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (name, x_shape, out_hw)


def test_resize_conv3x3_matches_untiled_bitwise_at_desk_level5():
    # one GEMM per item here is small enough for BLAS to take another
    # kernel, so the batch must stay whole
    assert_resize_conv3x3_matches_untiled((8, 64, 2, 2), 64, (16, 16), 113)


@pytest.mark.parametrize("which", ["forward", "backward"])
def test_resize_conv3x3_peak_bounded_at_paper_head_shape(which):
    # level 3 of train_paper256's fused head: 64 channels, 32x32 to 64x64
    n, c, h, w, oh, ow = 8, 64, 32, 32, 64, 64
    x = Tensor(rand((n, c, h, w), 114).astype(np.float32), requires_grad=True)
    weight = Tensor(rand((c, c, 3, 3), 115).astype(np.float32), requires_grad=True)
    g = rand((n, c, oh, ow), 116).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            resize_conv3x3(x, weight, (oh, ow))
        forward = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ((_, backward),) = tape.entries
    # two chunks' worth of temporaries (a GEMM result and its transposed
    # copy), each within eight tiles
    chunks = 2 * 8 * ops._BLOCK * 4
    xsize, out = n * c * h * w * 4, n * c * oh * ow * 4
    if which == "forward":
        # the channel-major input the tape keeps, the output and its
        # finiteness mask; the whole-batch tap-mix (18 MiB) and its copy
        # exceed that
        assert forward <= xsize + out + out // 4 + chunks
    else:
        # the whole tap-mix gradient, which the weight gradient sums over,
        # and the input gradient with its NCHW copy; the whole-batch
        # gradient's transposed copy exceeds that
        gz = 9 * c * n * h * w * 4
        assert backward_peak(backward, g, (x, weight)) <= gz + 2 * xsize + chunks


NETWORK_RUNS = {
    "desk64-batch8": ("desk", (), 8),
    "desk64-batch9": ("desk", (), 9),  # a held-out desk scene's nine crops
    "desk128-batch8": ("desk", ("data.crop_size=128",), 8),
    "paper256-batch8": ("default", ("data.canvas=512", "data.crop_size=256", "data.crop_stride=128"), 8),
}


def network_kernel_shapes(monkeypatch, run):
    """The (input, weight, stride, padding) shapes of every conv2d that is
    not one matmul, and the (input, cout, out_hw) of every resize_conv3x3,
    in one forward of a NETWORK_RUNS network."""
    base, overrides, batch = NETWORK_RUNS[run]
    cfg = config.apply_overrides(config.load_config(config.packaged_config_path(base)), overrides)
    net_cfg = config.network_config(cfg)
    convs, folds = set(), set()

    def recording_conv2d(x, p):
        if (p.weight.shape[2:], p.stride) != ((1, 1), 1):  # not the one-matmul path
            convs.add((x.shape, p.weight.shape, p.stride, p.padding))
        return conv2d(x, p)

    def recording_resize_conv3x3(x, weight, out_hw):
        folds.add((x.shape, weight.shape[0], out_hw))
        return resize_conv3x3(x, weight, out_hw)

    monkeypatch.setattr(network, "conv2d", recording_conv2d)
    monkeypatch.setattr(pointflow, "conv2d", recording_conv2d)
    monkeypatch.setattr(network, "resize_conv3x3", recording_resize_conv3x3)
    image = Tensor(rand((batch, 3) + net_cfg.level_size(0), 117).astype(np.float32))
    network.pfnet_forward(image, network.init_params(net_cfg, 0), net_cfg)
    monkeypatch.undo()
    assert convs and len(folds) == 3
    return sorted(convs), sorted(folds)


@pytest.mark.parametrize("run", NETWORK_RUNS)
def test_tiled_kernels_match_untiled_bitwise_on_network_shapes(monkeypatch, run):
    convs, folds = network_kernel_shapes(monkeypatch, run)
    for k, args in enumerate(convs):
        assert_conv_matches_untiled(*args, seed=120 + 3 * k)
    for k, args in enumerate(folds):
        assert_resize_conv3x3_matches_untiled(*args, seed=180 + 3 * k)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("run", ["desk64-batch8", "desk64-batch9"])
def test_tape_free_and_recorded_kernels_agree_bitwise_on_desk_shapes(monkeypatch, run, dtype):
    # tape-free calls run in the thread's workspace, recorded calls in
    # fresh arrays; no output may share memory with the workspace or with
    # the output of the tape-free call before it
    convs, folds = network_kernel_shapes(monkeypatch, run)
    cases = []
    for k, (x_shape, w_shape, stride, padding) in enumerate(convs):
        w, b = rand(w_shape, 201 + 3 * k).astype(dtype), rand(w_shape[:1], 202 + 3 * k).astype(dtype)
        cases.append((conv2d, rand(x_shape, 200 + 3 * k).astype(dtype), (ConvParams(Tensor(w), Tensor(b), stride, padding),)))
    for k, (x_shape, cout, out_hw) in enumerate(folds):
        w = rand((cout, x_shape[1], 3, 3), 251 + 2 * k).astype(dtype)
        cases.append((resize_conv3x3, rand(x_shape, 250 + 2 * k).astype(dtype), (Tensor(w), out_hw)))
    tape_free = []
    for op, xd, args in cases:
        tape_free.append(op(Tensor(xd), *args).data)
        assert not np.shares_memory(tape_free[-1], tensor._state.workspace)
        assert len(tape_free) == 1 or not np.shares_memory(tape_free[-1], tape_free[-2])
    for (op, xd, args), free in zip(cases, tape_free):
        with Tape():
            recorded = op(Tensor(xd, requires_grad=True), *args).data
        assert free.dtype == recorded.dtype == dtype and free.tobytes() == recorded.tobytes(), (op.__name__, xd.shape)


def padded_buffer_conv2d_grads(xd, wd, g, s, padding):
    """conv2d's backward for a 3x3 or strided conv as it was when the tape
    kept the padded polyphase buffer: the weight, bias and input gradients
    of output gradient g."""
    n, cin, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    oh, ow = g.shape[2:]
    hq = -(-(h + 2 * padding) // s)
    wq = -(-(w + 2 * padding) // s)
    lq = n * hq * wq
    xp = np.zeros((cin, n, s * hq, s * wq), dtype=xd.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = xd.transpose(1, 0, 2, 3)
    buf = xp.reshape(cin, n, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4).reshape(s * s, cin, lq)
    wt = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))
    na, nb = -(-kh // s), -(-kw // s)
    tile = min(lq, ops._BLOCK // (na * nb * cout))
    dmax = (kh - 1) // s * wq + (kw - 1) // s
    gpad = np.zeros((cout, dmax + lq), dtype=g.dtype)
    gpad[:, dmax:].reshape(cout, n, hq, wq)[:, :, :oh, :ow] = g.transpose(1, 0, 2, 3)
    e = gpad.itemsize
    shifted = np.lib.stride_tricks.as_strided(
        gpad[:, dmax:], (na, nb, cout, lq), (-wq * e, -e, gpad.strides[0], e), writeable=False
    )
    gw = np.empty((kh, kw, cout, cin), dtype=g.dtype)
    gbuf = np.zeros((s * s, cin, lq), dtype=g.dtype)
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
                np.matmul(w_ph.T, blk, out=gbuf[ph, :, c0 : c0 + cw])
            gw[pa::s, pb::s] = gw_ph.reshape(ta, tb, cout, cin)
    gxp = gbuf.reshape(s, s, cin, n, hq, wq).transpose(2, 3, 4, 0, 5, 1).reshape(cin, n, s * hq, s * wq)
    gx = gxp[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)
    return np.ascontiguousarray(gw.transpose(2, 3, 0, 1)), g.sum(axis=(0, 2, 3)), np.ascontiguousarray(gx)


def assert_conv_grads_match_padded_buffer(x_shape, w_shape, stride, padding, seed):
    xd, wd, bd = (rand(shape, seed + i).astype(np.float32) for i, shape in enumerate((x_shape, w_shape, w_shape[:1])))
    x = Tensor(xd, requires_grad=True)
    p = ConvParams(Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True), stride, padding)
    with Tape() as tape:
        out = conv2d(x, p)
    ((_, backward),) = tape.entries
    g = rand(out.shape, seed + 3).astype(np.float32)
    backward(g)
    want = padded_buffer_conv2d_grads(xd, wd, g, stride, padding)
    for name, got, ref in zip(("weight", "bias", "input"), (p.weight.grad, p.bias.grad, x.grad), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (name, x_shape, w_shape, stride)


@pytest.mark.parametrize("run", ["desk64-batch8", "paper256-batch8"])
def test_conv_gradients_match_padded_buffer_backward_bitwise_on_network_shapes(monkeypatch, run):
    # the backward rebuilds the buffer it once kept, so every gradient keeps
    # its bits; resize_conv3x3's gradients are held to the whole-batch
    # reference, which keeps its channel-major input, by the test above
    convs, _ = network_kernel_shapes(monkeypatch, run)
    for k, args in enumerate(convs):
        assert_conv_grads_match_padded_buffer(*args, seed=240 + 4 * k)


# an odd map at stride 2, and a 1x1 stride-2 conv whose three other phases
# hold no tap
@pytest.mark.parametrize("k", [3, 1])
def test_conv_gradients_match_padded_buffer_backward_bitwise_at_stride2_odd_map(k):
    assert_conv_grads_match_padded_buffer((2, 4, 7, 5), (3, 4, k, k), 2, 0, seed=300 + k)


@pytest.mark.parametrize("out_hw", [(0, 4), (4, 0), (-2, 3)])
def test_resize_conv3x3_invalid_out_hw(out_hw):
    with pytest.raises(ValueError):
        resize_conv3x3(Tensor(rand((1, 2, 3, 3), 94)), Tensor(rand((2, 2, 3, 3), 95)), out_hw)


def test_resize_conv3x3_rejects_bad_weight():
    x = Tensor(rand((1, 2, 3, 3), 96))
    with pytest.raises(ValueError):
        resize_conv3x3(x, Tensor(rand((2, 2, 1, 1), 97)), (6, 6))
    with pytest.raises(ValueError):
        resize_conv3x3(x, Tensor(rand((2, 3, 3, 3), 98)), (6, 6))


# ---------------------------------------------------------------------------
# point sampling


def four_neighbour_sample(x, pts):
    """Four-neighbour bilinear sampling of [N, K, 2] normalized points, the
    oracle for cell reads: values [N, K, C] and a function from an output
    gradient to the input gradient.  Values sum each row's two taps first,
    (00 + 01) + (10 + 11), the order of a separable resize; the gradient
    adds the taps in the order 00, 01, 10, 11."""
    n, c, h, w = x.shape
    u, v = pts[..., 0], pts[..., 1]
    y = np.clip(u * h - 0.5, 0.0, h - 1.0)
    x_ = np.clip(v * w - 0.5, 0.0, w - 1.0)
    y0, x0 = np.floor(y).astype(np.int64), np.floor(x_).astype(np.int64)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    wy, wx = y - y0, x_ - x0
    taps = [
        (y0, x0, (1 - wy) * (1 - wx)),
        (y0, x1, (1 - wy) * wx),
        (y1, x0, wy * (1 - wx)),
        (y1, x1, wy * wx),
    ]
    taps = [(yy, xx, ww[..., None].astype(x.dtype)) for yy, xx, ww in taps]
    nn = np.arange(n)[:, None]
    v00, v01, v10, v11 = (ww * x[nn, :, yy, xx] for yy, xx, ww in taps)
    values = (v00 + v01) + (v10 + v11)

    def backward(g):
        gx = np.zeros((n, c, h * w), dtype=x.dtype)
        base = np.arange(n)[:, None, None] * c + np.arange(c)[None, :, None]
        for yy, xx, ww in taps:
            idx = base * (h * w) + (yy * w + xx)[:, None, :]
            np.add.at(gx.reshape(-1), idx.ravel(), (ww * g).transpose(0, 2, 1).ravel())
        return gx.reshape(n, c, h, w)

    return values, backward


def sample_with_gradient(x, cells, grid_hw, g):
    """Values of the cell read of ``x``, through ``bilinear_resize`` to the
    grid, and the input gradient of ``g``."""
    return values_and_grad(lambda t: point_sample_batched(bilinear_resize(t, grid_hw), cells), x, g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("size", [2, 4, 8, 32])
def test_point_sample_matches_four_neighbour_oracle_bitwise(size, scale, dtype):
    gen = np.random.Generator(np.random.PCG64(size * 10 + scale))
    n, c, k = 3, 4, 2 * size * size  # duplicate cells too
    x = gen.uniform(-1, 1, (n, c, scale * size, scale * size)).astype(dtype)
    cells = gen.integers(0, size * size, (n, k))
    g = gen.uniform(-1, 1, (n, k, c)).astype(dtype)
    got, got_grad = sample_with_gradient(x, cells, (size, size), g)
    want, want_backward = four_neighbour_sample(x, flat_to_points(cells, size, size))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got_grad.tobytes() == want_backward(g).tobytes()


def test_point_sample_at_pixel_centers_is_exact():
    x = Tensor(rand((2, 3, 4, 5), 13))
    cells = np.broadcast_to(np.arange(20), (2, 20))
    out = point_sample_batched(x, cells).data
    expected = x.data.reshape(2, 3, 20).transpose(0, 2, 1)
    assert np.array_equal(out, expected)  # bitwise


def test_point_sample_constant_map():
    for hw in ((3, 3), (6, 6)):
        x = Tensor(np.full((1, 2) + hw, 1.25))
        out = point_sample_batched(bilinear_resize(x, (3, 3)), np.array([[0, 8, 5]])).data
        assert np.array_equal(out, np.full((1, 3, 2), 1.25))


def test_point_sample_center_mean():
    x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
    out = point_sample_batched(bilinear_resize(x, (1, 1)), np.array([[0]])).data
    assert out[0, 0, 0] == 1.5


def test_point_sample_rejects_outside_coordinates():
    x = Tensor(np.zeros((1, 1, 2, 2)))
    for cells in ([[4]], [[-1]]):
        with pytest.raises(ValueError, match="2x2 grid"):
            point_sample_batched(x, np.array(cells))
    with pytest.raises(ValueError):  # [K] without the batch axis
        point_sample_batched(x, np.array([0]))


def block_mean_read(x, cells, g):
    """2x2-block-mean reference for reading [N, K] cells of the half-size
    grid from x: values [N, K, C] and the input gradient of ``g``."""
    n, c, hx, wx = x.shape
    rows, cols = np.divmod(cells, wx // 2)
    taps = [(2 * rows + a) * wx + 2 * cols + b for a in (0, 1) for b in (0, 1)]
    flat = x.reshape(n, c, hx * wx)
    nn = np.arange(n)[:, None]
    values = 0.25 * flat[nn, :, taps[0]]
    for t in taps[1:]:
        values += 0.25 * flat[nn, :, t]
    gx = np.zeros(n * c * hx * wx, dtype=x.dtype)
    base = np.arange(n)[:, None, None] * c + np.arange(c)[None, :, None]
    for t in taps:
        np.add.at(gx, (base * (hx * wx) + t[:, None, :]).ravel(), (0.25 * g).transpose(0, 2, 1).ravel())
    return values, gx.reshape(x.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fine_read_through_resize_matches_block_mean(dtype):
    gen = np.random.Generator(np.random.PCG64(33))
    # 196 = 14 x 14 salient points of a 256 px gap-3 fine level, and a desk one
    for (n, c, h), k in (((8, 64, 64), 196), ((8, 64, 16), 32)):
        x = gen.uniform(-1, 1, (n, c, h, h)).astype(dtype)
        cells = gen.integers(0, (h // 2) ** 2, (n, k))
        g = gen.uniform(-1, 1, (n, k, c)).astype(dtype)
        got, got_grad = sample_with_gradient(x, cells, (h // 2, h // 2), g)
        want, want_grad = block_mean_read(x, cells, g)
        assert_within_rounding(got, want)
        assert_within_rounding(got_grad, want_grad)


def test_flat_to_points_are_row_major_cell_centers():
    for h, w in ((1, 1), (3, 5), (4, 4), (7, 2)):
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        expected = np.stack([(ii.ravel() + 0.5) / h, (jj.ravel() + 0.5) / w], axis=1)
        assert np.array_equal(flat_to_points(np.arange(h * w), h, w), expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_sample_gradients(seed):
    cells = np.random.Generator(np.random.PCG64(seed + 40)).integers(0, 25, (2, 6))
    w = Tensor(rand((2, 6, 3), seed + 50))
    for scale in (1, 2):
        x = Tensor(rand((2, 3, 5 * scale, 5 * scale), seed), requires_grad=True)

        def build():
            return sum_all(mul(point_sample_batched(bilinear_resize(x, (5, 5)), cells), w))

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
    out = scatter_points_batched(base, np.zeros((2, 0), dtype=np.int64), Tensor(np.zeros((2, 0, 2))))
    assert np.array_equal(out.data, base.data)


def test_scatter_single_cell():
    base = Tensor(np.zeros((1, 2, 3, 3)))
    out = scatter_points_batched(base, np.array([[4]]), Tensor(np.array([[[5.0, 6.0]]])))  # cell (1, 1)
    expected = np.zeros((1, 2, 3, 3))
    expected[0, :, 1, 1] = [5.0, 6.0]
    assert np.array_equal(out.data, expected)


def test_scatter_collision_last_write_wins():
    base = Tensor(np.zeros((1, 1, 2, 2)))
    out = scatter_points_batched(base, np.array([[0, 0]]), Tensor(np.array([[[1.0], [2.0]]])))
    assert out.data[0, 0, 0, 0] == 2.0


def test_scatter_row_count_mismatch():
    base = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        scatter_points_batched(base, np.array([[3]]), Tensor(np.zeros((1, 2, 1))))
    with pytest.raises(ValueError):  # batch sizes disagree
        scatter_points_batched(base, np.zeros((2, 1), dtype=np.int64), Tensor(np.zeros((2, 1, 1))))


def test_scatter_rejects_cells_off_the_grid():
    base = Tensor(np.zeros((1, 2, 2, 3)))
    values = Tensor(np.ones((1, 1, 2)))
    for cell in (-1, 6):
        with pytest.raises(ValueError, match="2x3 grid"):
            scatter_points_batched(base, np.array([[cell]]), values)


def test_scatter_rejects_value_rows_of_another_width():
    base = Tensor(np.zeros((1, 2, 2, 3)))
    with pytest.raises(ValueError, match="1 channels, base has 2"):
        scatter_points_batched(base, np.array([[4]]), Tensor(np.ones((1, 1, 1))))


def test_scatter_then_sample_roundtrip():
    # distinct cells read back exactly
    base = Tensor(rand((1, 3, 4, 4), 18))
    cells = np.array([[0, 9, 15]])
    values = Tensor(rand((1, 3, 3), 19))
    out = scatter_points_batched(base, cells, values)
    back = point_sample_batched(out, cells)
    assert np.array_equal(back.data, values.data)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scatter_gradients(seed):
    base = Tensor(rand((1, 2, 4, 4), seed), requires_grad=True)
    values = Tensor(rand((1, 3, 2), seed + 5), requires_grad=True)
    cells = np.array([[0, 10, 10]])  # last two collide
    w = Tensor(rand((1, 2, 4, 4), seed + 9))

    def build():
        return sum_all(mul(scatter_points_batched(base, cells, values), w))

    assert check_gradients(build, [base, values]) < DEFAULT_TOL


def winner_mask_loop(cells):
    """Per-item reference: the writes that survive later-write-wins, [N, K]."""
    n, k = cells.shape
    keep = np.zeros((n, k), dtype=bool)
    for i in range(n):
        _, last = np.unique(cells[i, ::-1], return_index=True)
        keep[i, k - 1 - last] = True
    return keep


def test_scatter_winners_match_item_loop_bitwise():
    gen = np.random.Generator(np.random.PCG64(31))
    for _ in range(100):
        n, c, h, w = gen.integers(1, 5), gen.integers(1, 4), gen.integers(1, 7), gen.integers(1, 7)
        k = gen.integers(0, 2 * h * w + 1)  # from no points to many collisions
        cells = gen.integers(0, h * w, (n, k))
        base = Tensor(gen.uniform(-1, 1, (n, c, h, w)), requires_grad=True)
        values = Tensor(gen.uniform(-1, 1, (n, k, c)), requires_grad=True)
        with Tape() as tape:
            out = scatter_points_batched(base, cells, values)
        ((_, backward),) = tape.entries
        g = gen.uniform(-1, 1, out.shape)
        backward(g)

        rows, cols = np.divmod(cells, w)
        want, want_gbase, want_gvals = base.data.copy(), g.copy(), np.zeros((n, k, c))
        for i, j in zip(*np.nonzero(winner_mask_loop(cells))):
            want[i, :, rows[i, j], cols[i, j]] = values.data[i, j]
            want_gbase[i, :, rows[i, j], cols[i, j]] = 0.0
            want_gvals[i, j] = g[i, :, rows[i, j], cols[i, j]]
        assert out.data.tobytes() == want.tobytes()
        assert base.grad.tobytes() == want_gbase.tobytes()
        assert values.grad.tobytes() == want_gvals.tobytes()


def test_scatter_batched_matches_single():
    # each row of a batched scatter equals the scatter of its batch-of-1 slice
    base2 = Tensor(rand((2, 2, 4, 4), 20))
    cells2 = np.array([[3, 12, 5], [7, 1, 7]])  # a collision in one item only
    vals2 = Tensor(rand((2, 3, 2), 22))
    out = scatter_points_batched(base2, cells2, vals2)
    for n in range(2):
        single = scatter_points_batched(
            Tensor(base2.data[n : n + 1]), cells2[n : n + 1], Tensor(vals2.data[n : n + 1])
        )
        assert np.array_equal(out.data[n], single.data[0])

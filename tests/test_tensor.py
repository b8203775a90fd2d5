import tracemalloc
import weakref

import numpy as np
import pytest

from pfnet import tensor
from pfnet.ops import ConvParams, conv2d
from pfnet.tensor import (
    Tape,
    TapeError,
    Tensor,
    add,
    batched_matmul,
    channel_slice,
    concat_channels,
    elementwise_binary,
    elementwise_unary,
    mul,
    relu,
    reverse_accumulate,
    scale,
    sigmoid,
    softmax_lastdim,
    sub,
)

from gradcheck import DEFAULT_TOL, check_gradients, sum_all


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.Generator(np.random.PCG64(seed)).uniform(lo, hi, shape)


def test_non_finite_values_rejected():
    with pytest.raises(FloatingPointError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(FloatingPointError):
        Tensor(np.array([np.nan]))


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float16, bool])
def test_non_float_dtype_rejected_by_name(dtype):
    with pytest.raises(ValueError, match=f"^tensor dtype {np.dtype(dtype)} is not float32 or float64$"):
        Tensor(np.zeros(3, dtype=dtype))


# ---------------------------------------------------------------------------
# elementwise forward values


def test_sigmoid_symmetry_point():
    assert sigmoid(Tensor(np.zeros(1))).data[0] == 0.5


def test_relu_definition():
    assert relu(Tensor(np.array([-3.0]))).data[0] == 0.0


def test_sigmoid_reference_value():
    # 1 / (1 + e^-2) evaluated with mpmath to 20 digits: 0.88079707797788244406
    got = sigmoid(Tensor(np.array([2.0]))).data[0]
    assert got == pytest.approx(0.88079707797788244406, abs=1e-12)


def test_sigmoid_strictly_inside_unit_interval():
    x = Tensor(rand((64,), 3, -30, 30))
    y = sigmoid(x).data
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_overflow_is_error_naming_the_op():
    x = Tensor(np.full((1, 1, 3, 3), 1e38, dtype=np.float32))
    p = ConvParams(Tensor(np.full((1, 1, 3, 3), 10.0, dtype=np.float32)), Tensor(np.zeros(1, dtype=np.float32)), padding=1)
    with pytest.raises(FloatingPointError, match="output of conv2d"):
        conv2d(x, p)


def test_binary_add_sub():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0, 4.0]))
    assert np.array_equal(add(a, b).data, [4.0, 6.0])
    x = Tensor(rand((5,), 1))
    assert np.array_equal(sub(x, x).data, np.zeros(5))


def test_mul_broadcasts_single_channel_map_over_channels():
    f = Tensor(rand((1, 2, 2, 2), 2))
    m = Tensor(rand((1, 1, 2, 2), 3))
    out = mul(f, m).data
    expanded = np.repeat(m.data, 2, axis=1)
    assert np.array_equal(out, f.data * expanded)


@pytest.mark.parametrize("b_shape", [(2, 2), (1, 2, 2), (2, 1, 1, 1), (1, 2, 3, 1), (1, 2, 1, 1)])
def test_binary_rejects_general_broadcast(b_shape):
    a = Tensor(rand((1, 2, 2, 2), 6))
    with pytest.raises(ValueError):
        add(a, Tensor(np.zeros(b_shape)))


# ---------------------------------------------------------------------------
# matmul / softmax / concat


def test_matmul_identity():
    a = Tensor(rand((2, 2, 2), 7))
    out = batched_matmul(Tensor(np.broadcast_to(np.eye(2), (2, 2, 2))), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_hand_expansion():
    a = Tensor(np.array([[[1.0, 2.0]], [[-1.0, 0.5]]]))
    b = Tensor(np.array([[[3.0], [4.0]], [[2.0], [6.0]]]))
    assert batched_matmul(a, b).data.tolist() == [[[11.0]], [[1.0]]]


def test_matmul_zeros():
    a = Tensor(rand((2, 3, 4), 8))
    out = batched_matmul(Tensor(np.zeros((2, 2, 3))), a)
    assert np.array_equal(out.data, np.zeros((2, 2, 4)))


def test_matmul_transpose_b_equals_transposed_operand():
    a = Tensor(rand((2, 3, 4), 13))
    b = Tensor(rand((2, 5, 4), 14))
    out = batched_matmul(a, b, transpose_b=True).data
    assert out.tobytes() == np.matmul(a.data, b.data.swapaxes(1, 2)).tobytes()
    with pytest.raises(ValueError):  # b is [B, n, k]: its last axis must match a's
        batched_matmul(a, Tensor(rand((2, 4, 5), 15)), transpose_b=True)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        batched_matmul(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 3))))
    with pytest.raises(ValueError):  # stack sizes differ
        batched_matmul(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((2, 3, 2))))
    with pytest.raises(ValueError):  # plain matrices are not stacks
        batched_matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_softmax_uniform_and_shift_invariance():
    assert np.allclose(softmax_lastdim(Tensor(np.zeros((1, 2)))).data, [[0.5, 0.5]])
    for c in (-5.0, 0.0, 17.5):
        row = softmax_lastdim(Tensor(np.full((1, 3), c))).data
        assert np.allclose(row, 1.0 / 3.0, atol=1e-9)


def test_softmax_reference_value():
    # e^1/(e^1+e^2), e^2/(e^1+e^2) evaluated independently
    out = softmax_lastdim(Tensor(np.array([[1.0, 2.0]]))).data
    assert out[0, 0] == pytest.approx(0.26894142136999512075, abs=1e-12)
    assert out[0, 1] == pytest.approx(0.73105857863000487925, abs=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = rand((2, 40, 17), 9, -50, 50)
    s = softmax_lastdim(Tensor(x)).data
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-6
    shifted = softmax_lastdim(Tensor(x + 123.0)).data
    assert np.abs(s - shifted).max() < 1e-9


def test_concat_shape_law_and_values():
    a = Tensor(rand((2, 2, 3, 3), 10))
    b = Tensor(rand((2, 3, 3, 3), 11))
    out = concat_channels([a, b])
    assert out.shape == (2, 5, 3, 3)
    assert np.array_equal(out.data[:, 2], b.data[:, 0])
    single = concat_channels([a])
    assert np.array_equal(single.data, a.data)


def test_concat_spatial_mismatch():
    with pytest.raises(ValueError):
        concat_channels([Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 2)))])


@pytest.mark.parametrize("start,stop", [(0, 2), (1, 4), (3, 5), (0, 5)])
def test_channel_slice_values(start, stop):
    x = Tensor(rand((2, 5, 3, 3), 12))
    assert np.array_equal(channel_slice(x, start, stop).data, x.data[:, start:stop])


@pytest.mark.parametrize("start,stop", [(-1, 2), (2, 2), (3, 1), (0, 6)])
def test_channel_slice_bad_range_rejected(start, stop):
    with pytest.raises(ValueError):
        channel_slice(Tensor(np.zeros((1, 5, 2, 2))), start, stop)


# ---------------------------------------------------------------------------
# reverse accumulation


def test_grad_of_sum_is_ones():
    x = Tensor(rand((3, 4), 12), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(x)
    reverse_accumulate(tape, loss)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_grad_of_sum_of_squares_is_2x():
    x = Tensor(rand((5,), 13), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    reverse_accumulate(tape, loss)
    assert np.allclose(x.grad, 2 * x.data, atol=1e-12)


def test_fanout_gradients_accumulate():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        y = add(x, x)
        loss = sum_all(mul(y, x))  # (x + x) * x = 2x^2 -> d/dx = 4x
    reverse_accumulate(tape, loss)
    assert np.allclose(x.grad, [8.0])


def test_unreached_leaf_gets_zero_gradient():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([1.0]), requires_grad=True)
    with Tape() as tape:
        _side = mul(y, y)
        loss = sum_all(mul(x, x))
    reverse_accumulate(tape, loss)
    assert np.array_equal(y.grad, [0.0])


def test_relu_of_a_leaf_keeps_only_a_packed_mask():
    for shape in [(2, 3, 4, 4), (3, 5, 7)]:
        x = Tensor(rand(shape, 21), requires_grad=True)
        with Tape() as tape:
            out = relu(x)
        (slot, backward), = tape.entries
        assert slot.remake is None  # a leaf has no rule to remake from
        arrays = [c.cell_contents for c in backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        # one bit per element, in whole bytes
        assert [(a.dtype, a.shape) for a in arrays] == [(np.dtype(np.uint8), (-(-out.size // 8),))]
        g = rand(out.shape, 22)
        backward(g)
        # the reference: the gradient passes where the output is positive
        assert x.grad.tobytes() == (g * (out.data > 0)).tobytes()


def test_relu_that_records_nothing_builds_no_mask(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("relu built a mask with nothing to record")

    monkeypatch.setattr(np, "packbits", refuse)
    x = Tensor(rand((2, 3, 4, 4), 23), requires_grad=True)
    assert np.array_equal(relu(x).data, np.maximum(x.data, 0.0))  # no tape
    with Tape() as tape:
        relu(Tensor(x.data))  # a tape, but no input wants a gradient
    assert tape.entries == []


def test_output_read_by_no_adjoint_is_freed_when_dropped():
    # a conv output feeding only an add: neither adjoint reads it, so once
    # the caller drops it, nothing on the tape keeps its values alive
    x = Tensor(rand((2, 3, 6, 6), 15), requires_grad=True)
    p = ConvParams(Tensor(rand((4, 3, 3, 3), 16), requires_grad=True), Tensor(rand((4,), 17), requires_grad=True), padding=1)
    other = Tensor(rand((2, 4, 6, 6), 18))
    with Tape() as tape:
        y = conv2d(x, p)
        freed = weakref.ref(y.data)
        loss = sum_all(add(y, other))
        del y  # freed by reference counting, with no collection pass
        assert freed() is None
    reverse_accumulate(tape, loss)
    assert np.array_equal(p.bias.grad, np.full(4, 36 * 2.0))


def test_leaf_created_after_freed_intermediates_is_registered():
    x = Tensor(rand((3,), 19), requires_grad=True)
    late = []
    with Tape() as tape:
        loss = sum_all(x)
        for _ in range(50):
            loss = add(loss, sum_all(scale(x, 0.5)))  # the scale output is freed here
        # new leaves may reuse the id() of a freed intermediate tensor
        for k in range(50):
            leaf = Tensor(np.full(2, float(k)), requires_grad=True)
            scale(leaf, 2.0)  # recorded, but the loss does not reach it
            late.append(leaf)
    reverse_accumulate(tape, loss)
    assert np.allclose(x.grad, 26.0)
    for leaf in late:
        assert leaf.grad is not None and np.array_equal(leaf.grad, np.zeros(2))


def test_gradient_is_freed_before_the_next_adjoint_runs():
    # every scale adjoint writes a fresh array, so once an adjoint has run
    # nothing but its slot could keep its gradient alive
    x = Tensor(rand((4, 5), 20), requires_grad=True)
    with Tape() as tape:
        y = x
        for _ in range(4):
            y = scale(y, 1.5)
        loss = sum_all(y)
    refs = []

    def watched(backward):
        def run(g):
            assert [r() for r in refs] == [None] * len(refs)
            refs.append(weakref.ref(g))
            backward(g)

        return run

    tape.entries = [(slot, watched(backward)) for slot, backward in tape.entries]
    reverse_accumulate(tape, loss)
    assert len(refs) == 5  # the sum's adjoint gets the loss's ones, then each scale's runs
    assert np.array_equal(x.grad, np.full((4, 5), 1.5 ** 4))


def test_only_leaves_keep_gradients_after_backward():
    x = Tensor(rand((3, 4), 21), requires_grad=True)
    w = Tensor(rand((3, 4), 22), requires_grad=True)
    unreached = Tensor(rand((2,), 23), requires_grad=True)
    with Tape() as tape:
        a = mul(x, w)
        b = relu(add(a, x))
        side = scale(unreached, 2.0)
        loss = sum_all(sub(b, scale(a, 0.5)))
    reverse_accumulate(tape, loss)
    for produced in (a, b, side, loss):
        assert produced.grad is None
    for leaf in (x, w):
        assert leaf.grad is not None and leaf.grad.shape == (3, 4)
    assert np.array_equal(unreached.grad, np.zeros(2))


def test_backward_peak_holds_a_few_gradients_across_a_chain():
    # 20 same-shape elementwise ops: an intermediate gradient lives only
    # until its adjoint has run, so the backward never holds more than a
    # few gradient-sized arrays at once, not one per op
    x = Tensor(rand((64, 512), 24), requires_grad=True)
    with Tape() as tape:
        y = x
        for k in range(20):
            y = scale(y, 1.01) if k % 2 else relu(y)
        loss = sum_all(y)
    del y
    tracemalloc.start()
    try:
        reverse_accumulate(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.data.nbytes


def test_loss_must_be_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        out = mul(x, x)
    with pytest.raises(TapeError):
        reverse_accumulate(tape, out)


def test_record_consumed_once():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(x)
    reverse_accumulate(tape, loss)
    with pytest.raises(TapeError):
        reverse_accumulate(tape, loss)


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(TapeError):
            with Tape():
                pass


# ---------------------------------------------------------------------------
# the scratch workspace of tape-free kernel calls


def test_scratch_regions_are_disjoint_aligned_views_of_one_kept_workspace():
    sizes = (5, 7, 3)
    with tensor._scratch((), np.float64, sizes) as scratch:
        arrays = [scratch.take(i, (size,)) for i, size in enumerate(sizes)]
        ws = tensor._state.workspace
    for i, a in enumerate(arrays):
        assert np.shares_memory(a, ws) and a.ctypes.data % 64 == 0
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
    with tensor._scratch((), np.float32, (4,)) as scratch:  # fits: no new buffer
        assert np.shares_memory(scratch.zeros(0, (2, 2)), ws)
    assert tensor._state.workspace is ws


def test_nested_scratch_use_raises_and_leaves_the_open_one_intact():
    with tensor._scratch((), np.float32, (4,)) as scratch:
        a = scratch.take(0, (4,))
        a[...] = 7.0
        with pytest.raises(RuntimeError, match="already in use"):
            with tensor._scratch((), np.float32, (4,)):
                pass
        assert (a == 7.0).all()
    with pytest.raises(ValueError):  # an error inside closes the workspace too
        with tensor._scratch((), np.float32, (4,)):
            raise ValueError("inside")
    with tensor._scratch((), np.float32, (4,)):
        pass


def test_recorded_scratch_takes_fresh_arrays():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape():
        with tensor._scratch((x,), np.float32, (4,)) as scratch:
            a, b = scratch.take(0, (4,)), scratch.zeros(0, (4,))
            with tensor._scratch((x,), np.float32, (4,)):  # no shared buffer to guard
                pass
        assert not np.shares_memory(a, b) and (b == 0).all()
        assert tensor._state.workspace is None


def test_entering_a_tape_drops_the_workspace():
    p = ConvParams(Tensor(rand((2, 2, 3, 3), 1)), Tensor(np.zeros(2)), padding=1)
    conv2d(Tensor(rand((1, 2, 4, 4), 2)), p)
    assert tensor._state.workspace is not None
    with Tape():
        assert tensor._state.workspace is None
        conv2d(Tensor(rand((1, 2, 4, 4), 2), requires_grad=True), p)  # recorded
        assert tensor._state.workspace is None


def test_foreign_loss_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as t1:
        loss = sum_all(x)
    with Tape() as t2:
        _ = sum_all(x)
    with pytest.raises(TapeError):
        reverse_accumulate(t2, loss)


# ---------------------------------------------------------------------------
# finite-difference properties


def unary_case(kind, seed):
    data = rand((3, 5), seed)
    if kind == "relu":
        data = data + 0.05 * np.sign(data)  # keep clear of the kink
    x = Tensor(data, requires_grad=True)
    w = Tensor(rand(x.shape, seed + 100))

    def build():
        return sum_all(mul(elementwise_unary(kind, x), w))

    return build, [x]


@pytest.mark.parametrize("kind", ["relu", "sigmoid"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unary_gradients(kind, seed):
    build, leaves = unary_case(kind, seed)
    assert check_gradients(build, leaves) < DEFAULT_TOL


@pytest.mark.parametrize("kind", ["add", "sub", "mul"])
@pytest.mark.parametrize("b_shape", [(2, 3, 4, 4), (2, 1, 4, 4)], ids=["b_shape0", "b_shape2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_binary_gradients(kind, b_shape, seed):
    a = Tensor(rand((2, 3, 4, 4), seed), requires_grad=True)
    b = Tensor(rand(b_shape, seed + 50), requires_grad=True)
    w = Tensor(rand((2, 3, 4, 4), seed + 99))

    def build():
        return sum_all(mul(elementwise_binary(kind, a, b), w))

    assert check_gradients(build, [a, b]) < DEFAULT_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_matmul_gradients(seed):
    a = Tensor(rand((2, 3, 4), seed), requires_grad=True)
    b = Tensor(rand((2, 4, 5), seed + 30), requires_grad=True)
    w = Tensor(rand((2, 3, 5), seed + 60))

    def build():
        return sum_all(mul(batched_matmul(a, b), w))

    assert check_gradients(build, [a, b]) < DEFAULT_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_matmul_transpose_b_gradients(seed):
    a = Tensor(rand((2, 3, 4), seed), requires_grad=True)
    b = Tensor(rand((2, 5, 4), seed + 30), requires_grad=True)
    w = Tensor(rand((2, 3, 5), seed + 60))

    def build():
        # b is used twice, so its transposed gradient adds to another one
        return add(sum_all(mul(batched_matmul(a, b, transpose_b=True), w)), sum_all(mul(b, b)))

    assert check_gradients(build, [a, b]) < DEFAULT_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_softmax_gradients(seed):
    x = Tensor(rand((2, 4, 6), seed), requires_grad=True)
    w = Tensor(rand((2, 4, 6), seed + 77))

    def build():
        return sum_all(mul(softmax_lastdim(x), w))

    assert check_gradients(build, [x]) < DEFAULT_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_concat_and_scale_gradients(seed):
    a = Tensor(rand((1, 2, 3, 3), seed), requires_grad=True)
    b = Tensor(rand((1, 1, 3, 3), seed + 5), requires_grad=True)
    w = Tensor(rand((1, 3, 3, 3), seed + 10))

    def build():
        return sum_all(mul(scale(concat_channels([a, b]), 1.75), w))

    assert check_gradients(build, [a, b]) < DEFAULT_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_channel_slice_gradients(seed):
    x = Tensor(rand((2, 5, 2, 3), seed), requires_grad=True)
    w = Tensor(rand((2, 2, 2, 3), seed + 10))

    def build():
        # two overlapping slices, so the gradient adds across fan-out
        return add(sum_all(mul(channel_slice(x, 1, 3), w)), sum_all(channel_slice(x, 2, 5)))

    assert check_gradients(build, [x]) < DEFAULT_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_composite_graph_matches_finite_differences(seed):
    x = Tensor(rand((2, 5, 5), seed), requires_grad=True)
    y = Tensor(rand((2, 5, 5), seed + 7), requires_grad=True)

    def build():
        z = batched_matmul(sigmoid(x), softmax_lastdim(y))
        return sum_all(mul(z, z))

    assert check_gradients(build, [x, y]) < DEFAULT_TOL


def test_determinism_of_forward_and_gradients():
    def run():
        x = Tensor(rand((4, 4), 42), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(softmax_lastdim(x), x))
        reverse_accumulate(tape, loss)
        return loss.data.tobytes(), x.grad.tobytes()

    assert run() == run()

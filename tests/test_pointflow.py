import numpy as np
import pytest

from pfnet.ops import ConvParams, _adaptive_edges, bilinear_resize, point_sample_batched, scatter_points_batched
from pfnet.pointflow import (
    DIRECTIONS,
    EDGE_MODES,
    PfmConfig,
    _flow,
    _uniform_region_points,
    boundary_branch,
    compute_saliency,
    pfm_forward,
    point_propagate,
    salient_match,
)
from pfnet.tensor import Tensor, add, mul, softmax_lastdim

from gradcheck import DEFAULT_TOL, check_gradients, sum_all


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.Generator(np.random.PCG64(seed)).uniform(lo, hi, shape)


def saliency_conv(c, seed=None, zero=False):
    if zero:
        w = np.zeros((1, 2 * c, 3, 3))
        b = np.zeros(1)
    else:
        w = rand((1, 2 * c, 3, 3), seed)
        b = rand((1,), seed + 1)
    return ConvParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), padding=1)


def boundary_conv(c, seed=None, zero=False):
    if zero:
        w = np.zeros((1, c, 1, 1))
        b = np.zeros(1)
    else:
        w = rand((1, c, 1, 1), seed)
        b = rand((1,), seed + 1)
    return ConvParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


def small_cfg(**kw):
    base = dict(salient_k=2, boundary_k=3)
    base.update(kw)
    return PfmConfig(**base)


def levels(seed, n=1, c=3, h=4):
    coarse = Tensor(rand((n, c, h, h), seed), requires_grad=True)
    fine = Tensor(rand((n, c, 2 * h, 2 * h), seed + 1), requires_grad=True)
    return coarse, fine


def resized_saliency(coarse, fine, params):
    """``compute_saliency`` of the fine level resized to the coarse grid, as ``pfm_forward`` calls it."""
    return compute_saliency(coarse, bilinear_resize(fine, coarse.shape[2:]), params)


# ---------------------------------------------------------------------------
# saliency


def test_saliency_zero_conv_gives_half_everywhere():
    coarse, fine = levels(0)
    m = resized_saliency(coarse, fine, saliency_conv(3, zero=True))
    assert np.allclose(m.data, 0.5)


def test_saliency_shape_law():
    coarse, fine = levels(1, n=2, c=4, h=5)
    m = resized_saliency(coarse, fine, saliency_conv(4, seed=2))
    assert m.shape == (2, 1, 5, 5)
    assert np.all(m.data > 0) and np.all(m.data < 1)


def test_saliency_hand_computed_single_channel():
    # 1-channel 2x2 coarse with 4x4 fine; kernel picks out the center tap only
    coarse = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    fine = Tensor(rand((1, 1, 4, 4), 3))
    w = np.zeros((1, 2, 3, 3))
    w[0, 0, 1, 1] = 1.0  # identity on the coarse channel
    params = ConvParams(Tensor(w), Tensor(np.zeros(1)), padding=1)
    m = resized_saliency(coarse, fine, params)
    expected = 1.0 / (1.0 + np.exp(-coarse.data))
    assert np.allclose(m.data[:, 0], expected[:, 0])


def test_saliency_rejects_mismatched_levels():
    coarse = Tensor(rand((1, 3, 4, 4), 4))
    cfg, params = small_cfg(), make_params(3, 0, zero=True)
    for bad in ((1, 3, 7, 8), (1, 2, 8, 8), (2, 3, 8, 8), (1, 3, 4, 4)):
        with pytest.raises(ValueError, match="^fine level must be 2x"):
            pfm_forward(coarse, Tensor(rand(bad, 5)), cfg, *params)
    with pytest.raises(ValueError):
        compute_saliency(coarse, Tensor(rand((1, 3, 3, 4), 5)), saliency_conv(3, zero=True))
    with pytest.raises(ValueError):
        compute_saliency(coarse, Tensor(rand((1, 2, 4, 4), 6)), saliency_conv(3, zero=True))


# ---------------------------------------------------------------------------
# salient match


def test_salient_match_zero_map_residual_identity():
    coarse, _ = levels(7)
    m = Tensor(np.zeros((1, 1, 4, 4)))
    enhanced, cells = salient_match(coarse, m, small_cfg())
    assert np.array_equal(enhanced.data, coarse.data)
    # tie-break: smallest flat index of each 2x2 region
    assert cells[0].tolist() == [0, 2, 8, 10]


def test_salient_match_unit_map_doubles():
    coarse, _ = levels(8)
    m = Tensor(np.ones((1, 1, 4, 4)))
    enhanced, _ = salient_match(coarse, m, small_cfg())
    assert np.allclose(enhanced.data, 2.0 * coarse.data)


def test_salient_match_quadrant_argmax_centers():
    vals = np.array(
        [
            [0.1, 0.9, 0.2, 0.3],
            [0.4, 0.5, 0.6, 0.7],
            [0.8, 0.05, 0.15, 0.95],
            [0.25, 0.35, 0.45, 0.55],
        ]
    )
    m = Tensor(vals.reshape(1, 1, 4, 4))
    coarse = Tensor(rand((1, 3, 4, 4), 9))
    _, cells = salient_match(coarse, m, small_cfg())
    # argmax per quadrant: 0.9 at (0,1), 0.7 at (1,3), 0.8 at (2,0), 0.95 at (2,3)
    assert cells[0].tolist() == [1, 7, 8, 11]


def test_salient_match_kernel_too_large():
    coarse, _ = levels(10)
    m = Tensor(np.full((1, 1, 4, 4), 0.5))
    with pytest.raises(ValueError, match="^pool output 5x5 exceeds input 4x4"):
        salient_match(coarse, m, small_cfg(salient_k=5))


@pytest.mark.parametrize("k", [-2, 0])
def test_pfm_config_rejects_salient_k_below_one(k):
    with pytest.raises(ValueError, match="^salient_k must be >= 1"):
        PfmConfig(salient_k=k)


@pytest.mark.parametrize("sampling", ["uniform_random", "attention_topk"])
def test_salient_match_sampling_variants(sampling):
    coarse, _ = levels(11)
    m = Tensor(rand((1, 1, 4, 4), 12, 0.01, 0.99))
    cfg = small_cfg(salient_sampling=sampling)
    enhanced, cells = salient_match(coarse, m, cfg)
    base_enhanced, _ = salient_match(coarse, m, small_cfg())
    # the attention feature is unchanged by the index-selection variant
    assert np.array_equal(enhanced.data, base_enhanced.data)
    assert cells.shape == (1, 4) and cells.dtype == np.int64
    assert np.all(cells >= 0) and np.all(cells < 16)
    again = salient_match(coarse, m, cfg)[1]
    assert np.array_equal(cells, again)


def uniform_region_points_loop(saliency_data, kernel, seed):
    """Per-item, per-region reference for ``_uniform_region_points``."""
    n = saliency_data.shape[0]
    h, w = saliency_data.shape[2:]
    kh, kw = kernel
    rs, re = _adaptive_edges(h, kh)
    cs, ce = _adaptive_edges(w, kw)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    flat = np.empty((n, kh * kw), dtype=np.int64)
    for item in range(n):
        pos = 0
        for i in range(kh):
            for j in range(kw):
                r = rs[i] + rng.integers(re[i] - rs[i])
                c = cs[j] + rng.integers(ce[j] - cs[j])
                flat[item, pos] = r * w + c
                pos += 1
    return flat


def test_uniform_region_points_match_region_loop_bitwise():
    gen = np.random.Generator(np.random.PCG64(40))
    # salient grids are square, on grids that need not be
    shapes = [(8, 32, 32, 14), (8, 16, 16, 14), (8, 8, 8, 8)]
    for _ in range(300):
        n, h, w = gen.integers(1, 5), gen.integers(1, 21), gen.integers(1, 21)
        shapes.append((n, h, w, gen.integers(1, min(h, w) + 1)))
    for i, (n, h, w, k) in enumerate(shapes):
        saliency = np.zeros((n, 1, h, w))
        got = _uniform_region_points(saliency, (k, k), i)
        want = uniform_region_points_loop(saliency, (k, k), i)
        assert got.dtype == want.dtype and np.array_equal(got, want), (n, h, w, k)


def test_salient_match_attention_topk_picks_highest():
    m_vals = rand((1, 1, 4, 4), 13, 0.0, 1.0)
    m = Tensor(m_vals)
    coarse, _ = levels(14)
    _, cells = salient_match(coarse, m, small_cfg(salient_sampling="attention_topk"))
    flat = m_vals[0, 0].ravel()
    oracle = sorted(range(16), key=lambda i: (-flat[i], i))[:4]
    assert cells[0].tolist() == oracle


# ---------------------------------------------------------------------------
# boundary branch


def test_boundary_subtraction_with_zero_saliency_equals_direct():
    coarse, _ = levels(15)
    m0 = Tensor(np.zeros((1, 1, 4, 4)))
    conv = boundary_conv(3, seed=16)
    b_sub, _ = boundary_branch(coarse, m0, conv, small_cfg(edge_mode="subtraction"))
    b_dir, _ = boundary_branch(coarse, m0, conv, small_cfg(edge_mode="direct"))
    assert np.allclose(b_sub.data, b_dir.data)


def test_boundary_subtraction_interior_cancellation():
    # constant feature, saturated saliency: the sharpened interior is zero
    coarse = Tensor(np.full((1, 1, 5, 5), 2.0))
    m1 = Tensor(np.ones((1, 1, 5, 5)))
    conv = ConvParams(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)))
    b, _ = boundary_branch(coarse, m1, conv, small_cfg(boundary_k=4))
    assert np.allclose(b.data[0, 0, 2, 2], 0.5)  # sigmoid(0) inside
    assert b.data[0, 0, 0, 0] != pytest.approx(0.5)  # borders keep residue


def test_boundary_topk_matches_exhaustive_sort():
    coarse = Tensor(rand((1, 1, 4, 4), 17))
    m = Tensor(np.full((1, 1, 4, 4), 0.3))
    conv = ConvParams(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)))
    b, cells = boundary_branch(coarse, m, conv, small_cfg(edge_mode="direct", boundary_k=3))
    flat = b.data[0, 0].ravel()
    oracle = sorted(range(16), key=lambda i: (-flat[i], i))[:3]
    assert cells[0].tolist() == oracle


def test_boundary_k_too_large():
    coarse, _ = levels(18)
    m = Tensor(np.full((1, 1, 4, 4), 0.5))
    with pytest.raises(ValueError, match="^k=17 exceeds 16 cells"):
        boundary_branch(coarse, m, boundary_conv(3, seed=19), small_cfg(boundary_k=17))


def test_boundary_addition_mode_runs():
    coarse, _ = levels(20)
    m = Tensor(rand((1, 1, 4, 4), 21, 0.0, 1.0))
    conv = boundary_conv(3, seed=22)
    b, cells = boundary_branch(coarse, m, conv, small_cfg(edge_mode="addition"))
    assert b.shape == (1, 1, 4, 4)
    assert cells.shape == (1, 3)


# ---------------------------------------------------------------------------
# point propagation


def test_propagate_single_point_is_sum():
    src = Tensor(rand((1, 2, 4, 4), 23))
    dst = Tensor(rand((1, 2, 4, 4), 24))
    cells = np.array([[6]])
    rows = point_propagate(src, dst, cells)
    q = point_sample_batched(dst, cells).data
    kv = point_sample_batched(src, cells).data
    assert np.allclose(rows.data, q + kv, atol=1e-12)


def test_propagate_constant_source_reduces_to_shift():
    src = Tensor(np.full((1, 2, 4, 4), 3.5))
    dst = Tensor(rand((1, 2, 4, 4), 25))
    cells = np.array([[0, 5, 9, 14, 15]])
    rows = point_propagate(src, dst, cells)
    q = point_sample_batched(dst, cells).data
    assert np.allclose(rows.data, q + 3.5, atol=1e-12)


def test_propagate_two_point_hand_case():
    # scalar oracle: K=2, C=2 with hand-set values
    src_vals = np.zeros((1, 2, 2, 2))
    src_vals[0, :, 0, 0] = [1.0, 2.0]
    src_vals[0, :, 0, 1] = [3.0, -1.0]
    dst_vals = np.zeros((1, 2, 2, 2))
    dst_vals[0, :, 0, 0] = [0.5, 0.25]
    dst_vals[0, :, 0, 1] = [-0.5, 1.0]
    cells = np.array([[0, 1]])  # cells (0,0), (0,1)
    rows = point_propagate(Tensor(src_vals), Tensor(dst_vals), cells).data[0]

    q = np.array([[0.5, 0.25], [-0.5, 1.0]])
    kv = np.array([[1.0, 2.0], [3.0, -1.0]])
    logits = q @ kv.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(rows, w @ kv + q, atol=1e-12)


def test_propagate_residual_guarantee_zero_source():
    src = Tensor(np.zeros((1, 3, 4, 4)))
    dst = Tensor(rand((1, 3, 4, 4), 27))
    cells = np.array([[0, 3, 6, 10, 12, 15]])
    rows = point_propagate(src, dst, cells)
    q = point_sample_batched(dst, cells).data
    assert np.array_equal(rows.data, q)  # bitwise


def test_propagate_empty_points_rejected():
    src = Tensor(rand((1, 2, 4, 4), 29))
    with pytest.raises(ValueError, match="^need at least one point"):
        point_propagate(src, src, np.zeros((1, 0), dtype=np.int64))


def test_propagate_rejects_maps_off_the_grid():
    src = Tensor(rand((1, 2, 4, 4), 30))
    with pytest.raises(ValueError, match="not on the 4x4 grid"):
        point_propagate(Tensor(rand((1, 2, 8, 8), 31)), src, np.array([[0]]))
    with pytest.raises(ValueError, match="not on the 8x8 grid"):
        point_propagate(src, Tensor(rand((1, 2, 8, 8), 31)), np.array([[0]]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propagate_gradients(seed):
    src = Tensor(rand((2, 2, 4, 4), seed), requires_grad=True)
    dst = Tensor(rand((2, 2, 4, 4), seed + 1), requires_grad=True)
    cells = np.random.Generator(np.random.PCG64(seed + 2)).integers(0, 16, (2, 4))
    w = Tensor(rand((2, 4, 2), seed + 3))

    def build():
        return sum_all(mul(point_propagate(src, dst, cells), w))

    assert check_gradients(build, [src, dst]) < DEFAULT_TOL


# ---------------------------------------------------------------------------
# full module


def make_params(c, seed, zero=False):
    """The (saliency conv, boundary conv) pair ``pfm_forward`` takes."""
    return saliency_conv(c, seed=seed, zero=zero), boundary_conv(c, seed=seed + 10, zero=zero)


def test_pfm_full_grid_matches_dense_oracle():
    coarse, fine = levels(30)
    cfg = small_cfg(salient_k=4, boundary_k=0)
    s_conv, b_conv = make_params(3, 31)
    out = pfm_forward(coarse, fine, cfg, s_conv, b_conv)

    enhanced, _ = salient_match(coarse, resized_saliency(coarse, fine, s_conv), cfg)
    dense = dense_affinity_reference(enhanced, fine)
    assert np.abs(out.refined.data - dense.data).max() < 1e-6


def test_pfm_zero_params_still_finite():
    coarse, fine = levels(32)
    s_conv, b_conv = make_params(3, 0, zero=True)
    out = pfm_forward(coarse, fine, small_cfg(), s_conv, b_conv)
    assert np.allclose(resized_saliency(coarse, fine, s_conv).data, 0.5)
    assert out.refined.shape == fine.shape
    assert np.isfinite(out.refined.data).all()


def test_pfm_untouched_cells_bitwise_unchanged():
    coarse, fine = levels(33)
    out = pfm_forward(coarse, fine, small_cfg(), *make_params(3, 34))
    h, w = fine.shape[2:]
    hit = np.zeros((h, w), dtype=bool)
    for pts in (out.salient_points, out.boundary_points):
        i, j = np.divmod(point_cells(pts, h // 2, w // 2)[0], w // 2)
        hit[2 * i + 1, 2 * j + 1] = True
    assert not hit.all()
    assert np.array_equal(out.refined.data[0][:, ~hit], fine.data[0][:, ~hit])


def test_pfm_determinism():
    def run():
        coarse, fine = levels(35)
        out = pfm_forward(coarse, fine, small_cfg(), *make_params(3, 36))
        return (
            out.refined.data.tobytes(),
            out.salient_points.tobytes(),
            out.boundary_points.tobytes(),
        )

    assert run() == run()


def point_cells(pts, h, w):
    """Flat cells of an h x w grid under [N, K, 2] cell centers."""
    return (np.floor(pts[..., 0] * h) * w + np.floor(pts[..., 1] * w)).astype(np.int64)


def flow_oracle(src, dst, out):
    """Salient then boundary rows into the coarse ``dst``, queried from it
    unrefined, with keys and values from the fine ``src`` resized to its grid."""
    grid = dst.shape[2:]
    src = bilinear_resize(src, grid)
    refined = dst
    for pts in (out.salient_points, out.boundary_points):
        cells = point_cells(pts, *grid)
        refined = scatter_points_batched(refined, cells, point_propagate(src, dst, cells))
    return refined


def test_pfm_bottom_up_refines_coarse():
    coarse, fine = levels(37)
    out = pfm_forward(coarse, fine, small_cfg(direction="bottom_up"), *make_params(3, 38))
    assert out.refined is None
    assert out.refined_coarse.shape == coarse.shape
    assert not np.array_equal(out.refined_coarse.data, coarse.data)


def test_pfm_td_then_bu_produces_both():
    coarse, fine = levels(39)
    out = pfm_forward(coarse, fine, small_cfg(direction="td_then_bu"), *make_params(3, 40))
    assert out.refined is not None and out.refined_coarse is not None
    assert out.refined.shape == fine.shape
    assert out.refined_coarse.shape == coarse.shape


def test_pfm_bottom_up_values():
    coarse, fine = levels(45, n=2)
    out = pfm_forward(coarse, fine, small_cfg(direction="bottom_up"), *make_params(3, 46))
    expected = flow_oracle(fine, coarse, out)
    assert np.array_equal(out.refined_coarse.data, expected.data)  # bitwise


def test_pfm_td_then_bu_values():
    coarse, fine = levels(47, n=2)
    params = make_params(3, 48)
    td = pfm_forward(coarse, fine, small_cfg(direction="top_down"), *params)
    out = pfm_forward(coarse, fine, small_cfg(direction="td_then_bu"), *params)
    assert np.array_equal(out.refined.data, td.refined.data)
    expected = flow_oracle(out.refined, coarse, out)
    assert np.array_equal(out.refined_coarse.data, expected.data)
    assert not np.array_equal(out.refined_coarse.data, coarse.data)


def check_pfm_gradients(seed, **cfg_kw):
    coarse = Tensor(rand((1, 2, 4, 4), seed + 200), requires_grad=True)
    fine = Tensor(rand((1, 2, 8, 8), seed + 201), requires_grad=True)
    s_conv, b_conv = make_params(2, seed + 202)
    cfg = small_cfg(salient_k=2, boundary_k=3, **cfg_kw)
    w_fine = Tensor(rand((1, 2, 8, 8), seed + 203))
    w_coarse = Tensor(rand((1, 2, 4, 4), seed + 204))

    def build():
        out = pfm_forward(coarse, fine, cfg, s_conv, b_conv)
        parts = []
        if out.refined is not None:
            parts.append(sum_all(mul(out.refined, w_fine)))
        if out.refined_coarse is not None:
            parts.append(sum_all(mul(out.refined_coarse, w_coarse)))
        return parts[0] if len(parts) == 1 else add(parts[0], parts[1])

    leaves = [coarse, fine, s_conv.weight, s_conv.bias, b_conv.weight, b_conv.bias]
    return check_gradients(build, leaves)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pfm_end_to_end_gradients(seed):
    assert check_pfm_gradients(seed) < DEFAULT_TOL


@pytest.mark.parametrize("edge_mode", EDGE_MODES)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_pfm_end_to_end_gradients_every_mode(direction, edge_mode):
    seed = 3 + 3 * DIRECTIONS.index(direction) + EDGE_MODES.index(edge_mode)
    assert check_pfm_gradients(seed, direction=direction, edge_mode=edge_mode) < DEFAULT_TOL


# ---------------------------------------------------------------------------
# dense reference


def dense_affinity_reference(src, dst):
    """Dense-affinity oracle: every cell of ``src``'s grid is a point,
    queried from ``dst`` resized to that grid, and each writes the ``dst``
    cell that holds the floor of its center."""
    n, _, h, w = src.shape
    cells = np.broadcast_to(np.arange(h * w), (n, h * w))
    rows = point_propagate(src, bilinear_resize(dst, (h, w)), cells)
    s = dst.shape[2] // h
    i, j = np.divmod(cells, w)
    return scatter_points_batched(dst, (s * i + s // 2) * (s * w) + s * j + s // 2, rows)


def test_dense_reference_single_point():
    src = Tensor(rand((1, 3, 1, 1), 41))
    dst = Tensor(rand((1, 3, 1, 1), 42))
    out = dense_affinity_reference(src, dst)
    assert np.allclose(out.data, src.data + dst.data, atol=1e-12)


def test_dense_reference_constant_source_same_grid():
    src = Tensor(np.full((1, 2, 4, 4), 1.5))
    dst = Tensor(rand((1, 2, 4, 4), 43))
    out = dense_affinity_reference(src, dst)
    assert np.allclose(out.data, dst.data + 1.5, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("size", [4, 8])
def test_dense_equals_full_grid_sparse(seed, size):
    src = Tensor(rand((1, 3, size, size), 100 + seed))
    dst = Tensor(rand((1, 3, size, size), 200 + seed))
    dense = dense_affinity_reference(src, dst)
    rows = point_propagate(src, dst, np.arange(size * size)[None])
    scattered = rows.data[0].T.reshape(1, 3, size, size)
    assert np.abs(dense.data - scattered).max() < 1e-6


def test_dense_reference_point_limit():
    # refused before any [N, K, K] affinity exists
    big = Tensor(np.zeros((1, 1, 65, 65)))
    with pytest.raises(ValueError, match="^4225 points on the 65x65 grid"):
        dense_affinity_reference(big, big)


def test_cells_read_and_write_their_own_cells_on_a_112_grid():
    # 112 = 896 / 8, where normalized centers do not round-trip exactly
    h = w = 112
    coarse = Tensor(rand((1, 2, h, w), 50))
    every = np.arange(h * w)[None]
    read = point_sample_batched(coarse, every).data[0]
    assert np.array_equal(read, coarse.data[0].reshape(2, -1).T)

    i = np.arange(h)
    cells = np.concatenate([i * w + i, i * w + w - 1 - i])[None]  # both diagonals: every row and column
    ones, zeros = Tensor(np.ones((1, 2, h, w))), Tensor(np.zeros((1, 2, h, w)))
    fine = Tensor(np.zeros((1, 2, 2 * h, 2 * w)))
    empty = np.zeros((1, 0), dtype=np.int64)
    # keys are all ones and queries zero, so every written row is about 1
    written = _flow((ones, ones), zeros, fine, (cells, empty)).data[0, 0] != 0
    want = np.zeros((2 * h, 2 * w), dtype=bool)
    ci, cj = np.divmod(cells[0], w)
    want[2 * ci + 1, 2 * cj + 1] = True
    assert np.array_equal(written, want)


def test_affinity_rows_sum_to_one_many_sizes():
    rng = np.random.Generator(np.random.PCG64(44))
    for _ in range(50):
        k = int(rng.integers(1, 64))
        q = rng.uniform(-2, 2, (k, 3))
        kv = rng.uniform(-2, 2, (k, 3))
        w = softmax_lastdim(Tensor(q @ kv.T)).data
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-6

import re
import warnings

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from pfnet import metrics
from pfnet.metrics import (
    BoundaryStats,
    ConfusionMatrix,
    boundary_match_counts,
    boundary_pixel_set,
    class_f1,
    fg_point_counts,
    label_boundaries,
    miou,
    report_rows,
    write_report_csv,
    write_report_text,
)


def oracle_counts(gt, pred, k):
    tp = np.zeros(k)
    fp = np.zeros(k)
    fn = np.zeros(k)
    for g, p in zip(gt.ravel(), pred.ravel()):
        if g == p:
            tp[g] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    return tp, fp, fn


def oracle_boundary_two_sided(mask):
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < h and 0 <= nj < w and mask[ni, nj] != mask[i, j]:
                    out[i, j] = True
    return out


def oracle_boundary(mask):
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            for di, dj in ((1, 0), (0, 1)):
                ni, nj = i + di, j + dj
                if ni < h and nj < w and mask[ni, nj] != mask[i, j]:
                    out[i, j] = True
    return out


def oracle_boundary_f1(pred, gt, threshold):
    pb = np.argwhere(oracle_boundary(pred))
    gb = np.argwhere(oracle_boundary(gt))
    if len(pb) == 0 and len(gb) == 0:
        return 1.0
    if len(pb) == 0 or len(gb) == 0:
        return 0.0
    d = np.sqrt(((pb[:, None, :] - gb[None, :, :]) ** 2).sum(axis=2))
    precision = (d.min(axis=1) <= threshold).mean()
    recall = (d.min(axis=0) <= threshold).mean()
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# miou / class F1


def test_miou_perfect_prediction():
    gt = np.random.Generator(np.random.PCG64(0)).integers(0, 4, (10, 10))
    cm = ConfusionMatrix(4).update(gt, gt)
    result = miou(cm)
    assert np.allclose(result.per_class[~np.isnan(result.per_class)], 1.0)
    assert result.mean == 1.0


def test_miou_hand_case():
    cm = ConfusionMatrix(2)
    cm.counts = np.array([[3, 1], [1, 3]], dtype=np.int64)
    result = miou(cm)
    assert np.allclose(result.per_class, [0.6, 0.6])
    assert result.mean == pytest.approx(0.6)


def test_miou_absent_class_excluded():
    gt = np.zeros((4, 4), dtype=np.int64)
    pred = np.zeros((4, 4), dtype=np.int64)
    cm = ConfusionMatrix(3).update(gt, pred)
    result = miou(cm)
    assert result.excluded == 2
    assert np.isnan(result.per_class[1]) and np.isnan(result.per_class[2])
    assert result.mean == 1.0


def test_class_f1_hand_case():
    cm = ConfusionMatrix(2)
    cm.counts = np.array([[3, 1], [1, 3]], dtype=np.int64)
    result = class_f1(cm)
    assert np.allclose(result.per_class, [0.75, 0.75])


def test_class_f1_all_wrong_binary():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([1, 1, 0, 0])
    result = class_f1(ConfusionMatrix(2).update(gt, pred))
    assert np.allclose(result.per_class, [0.0, 0.0])


@pytest.mark.parametrize("dtype", [np.int64, np.uint8], ids=["int64", "uint8"])
def test_confusion_matrix_rejects_label_255(dtype):
    # a mask holds class labels only: 255 is no ignore label
    cm = ConfusionMatrix(2)
    with pytest.raises(ValueError, match=r"^gt label outside class range \[0, 2\)$"):
        cm.update(np.array([0, 1, 255, 255], dtype=dtype), np.array([0, 0, 1, 0]))
    with pytest.raises(ValueError, match=r"^pred label outside class range \[0, 2\)$"):
        cm.update(np.array([0, 1, 1, 0]), np.array([0, 255, 1, 0], dtype=dtype))
    assert cm.total == 0


def test_confusion_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        ConfusionMatrix(2).update(np.array([3]), np.array([0]))


def test_confusion_matrix_rejects_shapes_of_equal_size():
    # pairing by flat position would count [[0, 16], [0, 0]]
    cm = ConfusionMatrix(2)
    with pytest.raises(ValueError, match=r"^ground truth \(2, 8\) vs prediction \(4, 4\)$"):
        cm.update(np.zeros((2, 8), np.uint8), np.ones((4, 4), np.uint8))
    assert cm.total == 0


@pytest.mark.parametrize(
    "gt,pred,error",
    [
        pytest.param([1, 2], [-1, 0], "pred label outside class range", id="negative-pred"),
        pytest.param([-1, 0], [1, 2], "gt label outside class range", id="negative-gt"),
        pytest.param([0, 1], [3, 0], "pred label outside class range", id="pred-at-K"),
        # truncating 0.7 and 1.9 would count both pixels as correct
        pytest.param([0.7, 1.9], [0, 1], "gt dtype float64 is not an integer dtype$", id="float-gt"),
        pytest.param([0, 1], [0.7, 1.9], "pred dtype float64 is not an integer dtype$", id="float-pred"),
    ],
)
def test_confusion_matrix_rejects_labels_outside_range_naming_side(gt, pred, error):
    cm = ConfusionMatrix(3)
    with pytest.raises(ValueError, match=f"^{error}"):
        cm.update(gt, pred)
    assert cm.total == 0


def test_metrics_match_bruteforce_oracle_many_cases():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(100):
        k = int(rng.integers(2, 6))
        gt = rng.integers(0, k, (16, 16))
        pred = rng.integers(0, k, (16, 16))
        cm = ConfusionMatrix(k).update(gt, pred)
        tp, fp, fn = oracle_counts(gt, pred, k)
        iou_res = miou(cm)
        f1_res = class_f1(cm)
        for c in range(k):
            union = tp[c] + fp[c] + fn[c]
            if union == 0:
                assert np.isnan(iou_res.per_class[c])
            else:
                assert abs(iou_res.per_class[c] - tp[c] / union) < 1e-9
            denom = 2 * tp[c] + fp[c] + fn[c]
            if denom > 0:
                assert abs(f1_res.per_class[c] - 2 * tp[c] / denom) < 1e-9


def test_streaming_equals_pooled():
    rng = np.random.Generator(np.random.PCG64(2))
    gt = rng.integers(0, 3, (32, 32))
    pred = rng.integers(0, 3, (32, 32))
    pooled = ConfusionMatrix(3).update(gt, pred)
    streamed = ConfusionMatrix(3)
    for r in range(0, 32, 8):
        streamed.merge(ConfusionMatrix(3).update(gt[r : r + 8], pred[r : r + 8]))
    assert np.array_equal(pooled.counts, streamed.counts)
    assert miou(pooled).mean == miou(streamed).mean


# ---------------------------------------------------------------------------
# boundary F1


def test_boundary_f1_identical_masks():
    rng = np.random.Generator(np.random.PCG64(3))
    mask = rng.integers(0, 3, (16, 16))
    stats = BoundaryStats((1, 2, 3)).update(mask, mask)
    for t in (1, 2, 3):
        assert stats.f1(t) == 1.0


def test_boundary_f1_shifted_band():
    gt = np.zeros((20, 20), dtype=np.int64)
    gt[:, 10:] = 1
    pred = np.zeros((20, 20), dtype=np.int64)
    pred[:, 12:] = 1  # boundary shifted 2 px
    assert BoundaryStats((3,)).update(pred, gt).f1(3) == 1.0
    assert BoundaryStats((1,)).update(pred, gt).f1(1) == 0.0


def test_boundary_f1_vacuous_agreement():
    empty = np.zeros((8, 8), dtype=np.int64)
    assert BoundaryStats((1,)).update(empty, empty).f1(1) == 1.0
    half = np.zeros((8, 8), dtype=np.int64)
    half[:, 4:] = 1
    assert BoundaryStats((1,)).update(empty, half).f1(1) == 0.0


def test_boundary_f1_symmetry():
    rng = np.random.Generator(np.random.PCG64(4))
    a = rng.integers(0, 2, (12, 12))
    b = rng.integers(0, 2, (12, 12))
    for t in (1, 2):
        ab = BoundaryStats((t,)).update(a, b).f1(t)
        assert ab == pytest.approx(BoundaryStats((t,)).update(b, a).f1(t), abs=1e-12)


def test_boundary_f1_matches_exhaustive_distance_oracle():
    # one update scores every threshold from the same distance transforms
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(100):
        gt = rng.integers(0, 3, (16, 16))
        pred = rng.integers(0, 3, (16, 16))
        stats = BoundaryStats((1, 2, 3)).update(pred, gt)
        for t in (1, 2, 3):
            assert stats.f1(t) == pytest.approx(oracle_boundary_f1(pred, gt, t), abs=1e-9)


def test_boundary_stats_update_runs_two_distance_transforms(monkeypatch):
    calls = []
    transform = metrics._squared_distances
    monkeypatch.setattr(metrics, "_squared_distances", lambda *a: calls.append(1) or transform(*a))
    rng = np.random.Generator(np.random.PCG64(11))
    pred, gt = rng.integers(0, 3, (12, 12)), rng.integers(0, 3, (12, 12))
    for thresholds in ((1,), (12, 9, 5, 3)):
        calls.clear()
        BoundaryStats(thresholds).update(pred, gt)
        assert len(calls) == 2


def scipy_match_counts(pred, gt, thresholds):
    """The counts from scipy's exact distance transform, as reference."""
    pred_b, gt_b = boundary_pixel_set(pred), boundary_pixel_set(gt)
    pred_dist, gt_dist = distance_transform_edt(~gt_b)[pred_b], distance_transform_edt(~pred_b)[gt_b]
    rows = [((pred_dist <= t).sum(), pred_b.sum(), (gt_dist <= t).sum(), gt_b.sum()) for t in thresholds]
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("shape", [(24, 24), (40, 17), (1, 30), (30, 1), (2, 2)])
def test_boundary_match_counts_equal_scipy_distance_transform(shape):
    # 40 px is the longest side, so 60 lies beyond every map's diagonal;
    # the largest threshold of a call sets its reach, so each is also
    # scored alone
    thresholds = (1, 1.5, 2.5, 3, 12, 12.7, 60)
    rng = np.random.Generator(np.random.PCG64(sum(shape)))
    for _ in range(20):
        classes = rng.integers(2, 4)
        gt = rng.integers(0, classes, shape)
        # sparse contours too, so that many distances exceed the reach
        pred = np.where(rng.random(shape) < rng.choice([0.005, 0.02, 0.5]), rng.integers(0, classes, shape), 0)
        if not boundary_pixel_set(pred).any() or not boundary_pixel_set(gt).any():
            continue
        for ts in (thresholds, *((t,) for t in thresholds)):
            assert np.array_equal(boundary_match_counts(pred, gt, ts), scipy_match_counts(pred, gt, ts)), ts


@pytest.mark.parametrize(
    "thresholds,message",
    [
        pytest.param((2, 0.5), "threshold must be >= 1 pixel, got 0.5", id="below-one"),
        pytest.param((2, float("nan")), "threshold must be finite, got nan", id="nan"),
        pytest.param((2, float("inf")), "threshold must be finite, got inf", id="inf"),
        pytest.param((2, float("-inf")), "threshold must be finite, got -inf", id="minus-inf"),
        pytest.param((), "thresholds must not be empty", id="empty"),
    ],
)
def test_boundary_match_counts_rejects_bad_threshold_naming_it(thresholds, message):
    # a NaN threshold used to pass the >= 1 check and match nothing
    mask = np.eye(4, dtype=np.int64)
    with pytest.raises(ValueError, match=f"^{message}$"):
        boundary_match_counts(mask, mask, thresholds)


def test_boundary_stats_streaming():
    rng = np.random.Generator(np.random.PCG64(6))
    stats = BoundaryStats(thresholds=(1, 2))
    pairs = [(rng.integers(0, 2, (10, 10)), rng.integers(0, 2, (10, 10))) for _ in range(4)]
    for pred, gt in pairs:
        stats.update(pred, gt)
    merged = BoundaryStats(thresholds=(1, 2))
    for pred, gt in pairs[:2]:
        merged.update(pred, gt)
    rest = BoundaryStats(thresholds=(1, 2))
    for pred, gt in pairs[2:]:
        rest.update(pred, gt)
    merged.merge(rest)
    for t in (1, 2):
        assert stats.f1(t) == merged.f1(t)
        assert 0.0 <= stats.f1(t) <= 1.0


def test_boundary_stats_repeated_threshold_counts_once():
    rng = np.random.Generator(np.random.PCG64(10))
    pairs = [(rng.integers(0, 3, (12, 12)), rng.integers(0, 3, (12, 12))) for _ in range(3)]
    desk = BoundaryStats(thresholds=(3, 2, 1, 1))
    single = BoundaryStats(thresholds=(1,))
    for pred, gt in pairs[:2]:
        desk.update(pred, gt)
        single.update(pred, gt)
    assert np.array_equal(desk.counts[1], single.counts[1])
    desk.merge(BoundaryStats(thresholds=(3, 2, 1, 1)).update(*pairs[2]))
    single.merge(BoundaryStats(thresholds=(1,)).update(*pairs[2]))
    assert np.array_equal(desk.counts[1], single.counts[1])


@pytest.mark.parametrize("into,other", [((1, 2), (3,)), ((1,), (1, 2))], ids=["disjoint", "extra"])
def test_boundary_stats_merge_rejects_other_thresholds(into, other):
    # merging (3,) into (1, 2) raised KeyError: 1, and (1, 2) into (1,)
    # dropped threshold 2's counts
    stats = BoundaryStats(thresholds=into)
    with pytest.raises(ValueError, match=re.escape(f"{other} merged into {into}")):
        stats.merge(BoundaryStats(thresholds=other).update(np.eye(4), np.eye(4)))
    assert all(not row.any() for row in stats.counts.values())


def test_label_boundaries_matches_oracle():
    rng = np.random.Generator(np.random.PCG64(7))
    mask = rng.integers(0, 4, (16, 16))
    assert np.array_equal(label_boundaries(mask), oracle_boundary_two_sided(mask))


def test_boundary_pixel_set_matches_one_sided_oracle():
    rng = np.random.Generator(np.random.PCG64(17))
    mask = rng.integers(0, 4, (16, 16))
    assert np.array_equal(boundary_pixel_set(mask), oracle_boundary(mask))


# ---------------------------------------------------------------------------
# foreground sample ratio


def test_fg_ratio_all_on_rectangle():
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[4:8, 4:8] = 1
    pts = np.array([[(r + 0.5) / 16, (c + 0.5) / 16] for r in range(4, 8) for c in range(4, 8)])
    assert fg_point_counts([pts], mask) == (16, 16)


def test_fg_ratio_uniform_grid_approximates_mask_ratio():
    rng = np.random.Generator(np.random.PCG64(8))
    mask = (rng.random((16, 16)) < 0.25).astype(np.uint8)
    pts = np.array([[(r + 0.5) / 16, (c + 0.5) / 16] for r in range(16) for c in range(16)])
    hits, unique = fg_point_counts([pts], mask)
    assert unique == 256
    assert hits / unique == pytest.approx((mask > 0).mean(), abs=1e-12)


def test_fg_ratio_deduplicates_cells():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[0, 0] = 1
    near_same_cell = np.array([[0.01, 0.01], [0.05, 0.05]])  # same cell twice
    other = np.array([[0.9, 0.9]])
    assert fg_point_counts([near_same_cell, other], mask) == (1, 2)  # one fg cell of two


def test_fg_counts_empty_point_sets_are_zero():
    assert fg_point_counts([np.zeros((0, 2))], np.zeros((4, 4))) == (0, 0)
    assert fg_point_counts([], np.zeros((4, 4))) == (0, 0)


def test_fg_counts_accept_batched_point_sets():
    # [N, K, 2] point sets, as a PFM returns them, count like their flat rows
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[:4] = 1
    pts = np.random.Generator(np.random.PCG64(10)).uniform(0, 1, (2, 5, 2))
    assert fg_point_counts([pts], mask) == fg_point_counts([pts.reshape(-1, 2)], mask)


def fg_point_counts_per_set(point_sets, gt_mask):
    """The reference for ``fg_point_counts``: floor and clip one set at a time."""
    h, w = gt_mask.shape
    cells = []
    for pts in point_sets:
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        if pts.shape[0] == 0:
            continue
        rows = np.clip(np.floor(pts[:, 0] * h), 0, h - 1).astype(np.int64)
        cols = np.clip(np.floor(pts[:, 1] * w), 0, w - 1).astype(np.int64)
        cells.append(rows * w + cols)
    if not cells:
        return 0, 0
    unique = np.unique(np.concatenate(cells))
    fg = np.asarray(gt_mask).ravel()[unique] > 0
    return int(fg.sum()), int(unique.size)


@pytest.mark.parametrize("seed", range(5))
def test_fg_counts_equal_the_per_set_loop(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = (rng.random((9, 13)) < 0.3).astype(np.uint8)
    below_one = np.nextafter(1.0, 0.0)  # 9 or 13 times it rounds to below 9 or 13: the last cell
    edges = np.array([[r / 9, c / 13] for r in range(9) for c in range(13)] + [[below_one, below_one], [0.0, 0.0]])
    sets = [
        rng.uniform(0, 1, (3, int(rng.integers(0, 40)), 2)),  # [N, K, 2], as a PFM returns them
        np.zeros((0, 2)),
        rng.uniform(0, 1, (int(rng.integers(1, 60)), 2)),
        np.zeros((2, 0, 2)),
        edges[rng.permutation(len(edges))[: int(rng.integers(1, len(edges)))]],
    ]
    assert fg_point_counts(sets, mask) == fg_point_counts_per_set(sets, mask)
    for k in range(len(sets)):
        assert fg_point_counts(sets[k : k + 1], mask) == fg_point_counts_per_set(sets[k : k + 1], mask)


@pytest.mark.parametrize(
    "point",
    [[1.5, 0.2], [-0.3, 0.9], [np.nan, 0.2], [0.2, np.inf], [-np.inf, 0.5], [1.0, 0.5]],
    ids=["above-one", "below-zero", "nan", "+inf", "-inf", "one"],
)
def test_fg_counts_reject_a_point_outside_the_unit_square(point):
    # [1.5, 0.2] and [-0.3, 0.9] were clipped into the mask; NaN was counted
    # with only a RuntimeWarning
    good = np.full((2, 3, 2), 0.5)
    sets = [good, np.zeros((0, 2)), np.array([[0.1, 0.1], point]), good]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"point set 2: point {point} is not in [0, 1) x [0, 1)")):
            fg_point_counts(sets, np.zeros((4, 4), np.uint8))


# ---------------------------------------------------------------------------
# reports


def test_report_writers(tmp_path):
    rng = np.random.Generator(np.random.PCG64(9))
    gt = rng.integers(0, 3, (16, 16))
    pred = rng.integers(0, 3, (16, 16))
    cm = ConfusionMatrix(3).update(gt, pred)
    stats = BoundaryStats(thresholds=(3, 2, 1)).update(pred, gt)
    rows = report_rows(miou(cm), class_f1(cm), stats, extras={"fg_point_ratio": 0.25})
    write_report_csv(rows, tmp_path / "report.csv")
    write_report_text(rows, tmp_path / "report.txt")
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("metric,value\n")
    assert "miou," in csv_text
    assert "boundary_f1_3px," in csv_text
    assert "fg_point_ratio,0.25" in csv_text
    assert (tmp_path / "report.txt").read_text().count("\n") == len(rows)
    keys = [k for k, _ in rows]
    assert sum(1 for k in keys if k.endswith("_iou")) == 3

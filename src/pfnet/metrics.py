"""Segmentation quality: per-class IoU/F1 from a confusion matrix,
contour F1 at pixel tolerances via an exact Euclidean distance transform
(computed in numpy up to the largest tolerance), and the foreground counts
of sampled points.

Masks hold class labels in ``[0, K)`` only, and every pixel is scored; a
label outside that range is rejected, not skipped.  Confusion matrices and
boundary match counts are mergeable, so metrics computed streaming over
crops equal the same metrics on pooled counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfusionMatrix:
    """K x K counts; rows are ground truth, columns prediction."""

    def __init__(self, num_classes):
        if num_classes < 2:
            raise ValueError("need at least 2 classes")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, gt, pred):
        """Count each (gt, pred) pixel pair; both hold integer labels in ``[0, K)``."""
        gt, pred = np.asarray(gt), np.asarray(pred)
        if gt.shape != pred.shape:
            raise ValueError(f"ground truth {gt.shape} vs prediction {pred.shape}")
        k = self.num_classes
        for name, labels in (("gt", gt), ("pred", pred)):
            if labels.dtype.kind not in "iu":
                raise ValueError(f"{name} dtype {labels.dtype} is not an integer dtype")
            if labels.size and (labels.min() < 0 or labels.max() >= k):
                raise ValueError(f"{name} label outside class range [0, {k})")
        # int64, so gt * k + pred cannot overflow a uint8 mask
        gt, pred = (labels.ravel().astype(np.int64) for labels in (gt, pred))
        self.counts += np.bincount(gt * k + pred, minlength=k * k).reshape(k, k)
        return self

    def merge(self, other):
        if other.num_classes != self.num_classes:
            raise ValueError("class counts differ")
        self.counts += other.counts
        return self

    @property
    def total(self):
        return int(self.counts.sum())


@dataclass
class ClasswiseResult:
    per_class: np.ndarray  # NaN where the class was excluded
    mean: float
    excluded: int


def _classwise(cm, tp_weight):
    """Per-class w*tp / (w*tp + fp + fn) with w = ``tp_weight``; classes
    with a zero denominator are excluded."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(cm.counts).astype(np.float64)
    fp = cm.counts.sum(axis=0) - tp
    fn = cm.counts.sum(axis=1) - tp
    denom = tp_weight * tp + fp + fn
    per_class = np.full(cm.num_classes, np.nan)
    present = denom > 0
    per_class[present] = tp_weight * tp[present] / denom[present]
    excluded = int((~present).sum())
    return ClasswiseResult(per_class, float(per_class[present].mean()), excluded)


def miou(cm):
    """Per-class IoU = tp / (tp + fp + fn); zero-union classes excluded."""
    return _classwise(cm, 1)


def class_f1(cm):
    """Per-class F1 = 2tp / (2tp + fp + fn) over classes present."""
    return _classwise(cm, 2)


# ---------------------------------------------------------------------------
# boundaries


def label_boundaries(mask):
    """Pixels whose label differs from any 4-neighbor (both sides marked),
    over the last two axes; leading axes are independent masks."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("empty mask")
    b = np.zeros(mask.shape, dtype=bool)
    diff_v = mask[..., :-1, :] != mask[..., 1:, :]
    b[..., :-1, :] |= diff_v
    b[..., 1:, :] |= diff_v
    diff_h = mask[..., :-1] != mask[..., 1:]
    b[..., :-1] |= diff_h
    b[..., 1:] |= diff_h
    return b


def boundary_pixel_set(mask):
    """Contour pixels for the F-measure: label change against the right or
    down neighbor, one pixel per crossing.

    Marking a single side keeps the set distance equal to the contour
    displacement (a 2 px shift yields sets 2 px apart), which is what the
    pixel-tolerance thresholds measure.
    """
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("empty mask")
    b = np.zeros(mask.shape, dtype=bool)
    b[:-1, :] |= mask[:-1, :] != mask[1:, :]
    b[:, :-1] |= mask[:, :-1] != mask[:, 1:]
    return b


def _squared_distances(features, reach):
    """Squared Euclidean distance from each pixel of a 2-D map to the
    nearest set pixel of ``features`` (which has one), exact wherever it is
    below ``(reach + 1) ** 2`` and at least that elsewhere.

    A scan along each row gives the distance to the row's nearest set
    pixel, capped at ``reach + 1``; one ``np.minimum`` per row offset
    ``k <= reach`` then adds ``k ** 2`` to the rows ``k`` above and below.
    A distance below ``reach + 1`` has both legs at most ``reach``, so its
    candidate is never capped or skipped.  The result has the narrowest
    unsigned dtype that holds every candidate.
    """
    h, w = features.shape
    far = reach + 1
    cols = np.arange(w)
    left = np.maximum.accumulate(np.where(features, cols, -far), axis=1)
    right = np.minimum.accumulate(np.where(features, cols, w - 1 + far)[:, ::-1], axis=1)[:, ::-1]
    dtype = np.min_scalar_type(far * far + reach * reach)
    across = np.minimum(np.minimum(cols - left, right - cols), far).astype(dtype)
    across *= across
    best = across.copy()
    for k in range(1, min(reach, h - 1) + 1):
        np.minimum(best[:-k], across[k:] + k * k, out=best[:-k])
        np.minimum(best[k:], across[:-k] + k * k, out=best[k:])
    return best


def boundary_match_counts(pred_mask, gt_mask, thresholds):
    """Matched/total boundary-pixel counts under Euclidean tolerances.

    Returns an int64 array with one row (pred_matched, pred_total,
    gt_matched, gt_total) per threshold; counts merge additively across
    crops.  Each mask's contour set and distance transform is computed
    once, whatever the number of thresholds.  The transform reaches the
    largest threshold, capped at the map's longer side (no leg of a
    distance in the map is longer), and a boundary pixel matches where the
    float64 square root of its squared distance is at most the threshold,
    as with scipy's ``distance_transform_edt``.
    """
    if pred_mask.shape != gt_mask.shape:
        raise ValueError("mask shapes differ")
    thresholds = np.asarray(thresholds, dtype=np.float64)[:, None]
    if thresholds.size == 0:
        raise ValueError("thresholds must not be empty")
    for t in thresholds[:, 0]:
        if not np.isfinite(t):
            raise ValueError(f"threshold must be finite, got {t}")
        if t < 1:
            raise ValueError(f"threshold must be >= 1 pixel, got {t}")
    pred_b = boundary_pixel_set(pred_mask)
    gt_b = boundary_pixel_set(gt_mask)
    rows = np.zeros((len(thresholds), 4), dtype=np.int64)
    rows[:, 1] = pred_b.sum()
    rows[:, 3] = gt_b.sum()
    if pred_b.any() and gt_b.any():
        reach = min(int(thresholds.max()), max(pred_b.shape))
        for col, near, at in ((0, gt_b, pred_b), (2, pred_b, gt_b)):
            dist = np.sqrt(_squared_distances(near, reach)[at].astype(np.float64))
            rows[:, col] = (dist <= thresholds).sum(axis=1)
    return rows


def _f_measure(pred_matched, pred_total, gt_matched, gt_total):
    if pred_total == 0 and gt_total == 0:
        return 1.0  # vacuous agreement
    if pred_total == 0 or gt_total == 0:
        return 0.0
    precision = pred_matched / pred_total
    recall = gt_matched / gt_total
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass
class BoundaryStats:
    """Streaming boundary-match counts per threshold (a mergeable monoid)."""

    thresholds: tuple
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        for t in self.thresholds:
            self.counts.setdefault(t, np.zeros(4, dtype=np.int64))

    def update(self, pred_mask, gt_mask):
        # unique thresholds; a repeated one counts once
        rows = boundary_match_counts(pred_mask, gt_mask, tuple(self.counts))
        for t, row in zip(self.counts, rows):
            self.counts[t] += row
        return self

    def merge(self, other):
        if set(other.counts) != set(self.counts):
            raise ValueError(f"boundary thresholds differ: {other.thresholds} merged into {self.thresholds}")
        for t in self.counts:
            self.counts[t] += other.counts[t]
        return self

    def f1(self, threshold):
        return _f_measure(*self.counts[threshold])


# ---------------------------------------------------------------------------
# sampled-point diagnostics


def fg_point_counts(point_sets, gt_mask):
    """(foreground hits, unique points) for streaming aggregation."""
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


# ---------------------------------------------------------------------------
# reports


def report_rows(iou_result, f1_result, boundary_stats=None, extras=None):
    """Flat (key, value) rows shared by the CSV and text reports."""
    rows = []
    for k in range(len(iou_result.per_class)):
        rows.append((f"class{k}_iou", iou_result.per_class[k]))
        rows.append((f"class{k}_f1", f1_result.per_class[k]))
    rows.append(("miou", iou_result.mean))
    rows.append(("mean_f1", f1_result.mean))
    rows.append(("excluded_classes", iou_result.excluded))
    if boundary_stats is not None:
        for t in boundary_stats.counts:
            rows.append((f"boundary_f1_{t}px", boundary_stats.f1(t)))
    for key, value in (extras or {}).items():
        rows.append((key, value))
    return rows


def write_report_csv(rows, path):
    with open(path, "w") as f:
        f.write("metric,value\n")
        for key, value in rows:
            f.write(f"{key},{_fmt(value)}\n")


def write_report_text(rows, path):
    width = max(len(k) for k, _ in rows)
    with open(path, "w") as f:
        for key, value in rows:
            f.write(f"{key.ljust(width)}  {_fmt(value)}\n")


def _fmt(value):
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        return f"{value:.6f}"
    return str(value)

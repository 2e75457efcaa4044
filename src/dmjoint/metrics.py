"""Selection and prediction scoring against ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConfusionSummary", "confusion", "squared_error", "median_model"]


@dataclass(frozen=True)
class ConfusionSummary:
    tp: int
    tn: int
    fp: int
    fn: int
    sensitivity: float
    specificity: float
    mcc: float

    @property
    def n_selected(self) -> int:
        return self.tp + self.fp


def confusion(selected, truth) -> ConfusionSummary:
    """Sensitivity, specificity, and Matthews correlation of a binary selection.

    Any ratio with a zero denominator is reported as 0.
    """
    sel = np.asarray(selected).ravel().astype(bool)
    tru = np.asarray(truth).ravel().astype(bool)
    if sel.shape != tru.shape:
        raise ValueError("selected and truth lengths differ")
    tp = int(np.sum(sel & tru))
    tn = int(np.sum(~sel & ~tru))
    fp = int(np.sum(sel & ~tru))
    fn = int(np.sum(~sel & tru))
    sens = tp / (tp + fn) if tp + fn else 0.0
    spec = tn / (tn + fp) if tn + fp else 0.0
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / np.sqrt(denom) if denom else 0.0
    return ConfusionSummary(tp=tp, tn=tn, fp=fp, fn=fn,
                            sensitivity=sens, specificity=spec, mcc=float(mcc))


def squared_error(y, yhat) -> float:
    """Sum of squared errors (the tables' MSE/PMSE are sums, not means)."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.shape != yhat.shape:
        raise ValueError("length mismatch")
    return float(np.sum((y - yhat) ** 2))


def median_model(mppi) -> np.ndarray:
    """Median-probability model: indicators with MPPI >= 0.5."""
    arr = np.asarray(mppi, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("MPPI values must lie in [0, 1]")
    return (arr >= 0.5).astype(np.uint8)

"""Standard preprocessing: center the response, standardize covariates.

The fitting routines assume these transforms have been applied; test data are
always transformed with the training statistics, which ``fit`` records so that
``predict`` needs no training data.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset
from .predict import TestSet

__all__ = ["preprocess", "preprocess_test"]


def preprocess(train: Dataset):
    """Return (train', stats) with Y centered and X columns scaled to mean 0,
    sample variance 1; ``preprocess_test`` applies ``stats`` to a test set."""
    y_mean = float(train.Y.mean())
    x_mean = train.X.mean(axis=0)
    x_sd = train.X.std(axis=0, ddof=1) if train.X.shape[0] > 1 else np.ones(train.X.shape[1])
    if np.any(x_sd <= 0):
        col = int(np.argmin(x_sd))
        raise ValueError(f"covariate column {col} has zero variance")
    train_p = Dataset(Y=train.Y - y_mean, Z=train.Z, X=(train.X - x_mean) / x_sd)
    stats = {"y_mean": y_mean, "x_mean": x_mean.tolist(), "x_sd": x_sd.tolist()}
    return train_p, stats


def preprocess_test(test: TestSet, stats: dict) -> TestSet:
    """``test`` transformed with the training statistics ``stats`` that
    ``preprocess`` returns: X scaled by ``x_mean`` and ``x_sd``, Y centred by
    ``y_mean``."""
    return TestSet(
        Z_test=test.Z_test,
        X_test=(test.X_test - np.asarray(stats["x_mean"])) / np.asarray(stats["x_sd"]),
        Y_test=None if test.Y_test is None else test.Y_test - stats["y_mean"],
    )

"""Standard preprocessing: center the response, standardize covariates.

The fitting routines assume these transforms have been applied; test data are
always transformed with the training statistics, which ``fit`` records so that
``predict`` needs no training data.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset, standardize_columns
from .predict import TestSet

__all__ = ["preprocess", "preprocess_test"]


def preprocess(train: Dataset):
    """Return (train', stats) with Y centered and X columns scaled to mean 0,
    sample variance 1; ``preprocess_test`` applies ``stats`` to a test set."""
    y_mean = float(train.Y.mean())
    X, x_mean, x_sd = standardize_columns(train.X, "covariate")
    return (Dataset(Y=train.Y - y_mean, Z=train.Z, X=X),
            {"y_mean": y_mean, "x_mean": x_mean.tolist(), "x_sd": x_sd.tolist()})


def preprocess_test(test: TestSet, stats: dict) -> TestSet:
    """``test`` transformed with the training statistics ``stats`` that
    ``preprocess`` returns: X scaled by ``x_mean`` and ``x_sd``, Y centred by
    ``y_mean``."""
    return TestSet(
        Z_test=test.Z_test,
        X_test=(test.X_test - np.asarray(stats["x_mean"])) / np.asarray(stats["x_sd"]),
        Y_test=None if test.Y_test is None else test.Y_test - stats["y_mean"],
    )

import numpy as np
import pytest

from dmjoint.metrics import (
    confusion,
    median_model,
    squared_error,
)


def test_confusion_hand_computed():
    # tp=4, fn=1, fp=2, tn=13
    truth = np.array([1] * 5 + [0] * 15)
    sel = np.array([1, 1, 1, 1, 0] + [1, 1] + [0] * 13)
    c = confusion(sel, truth)
    assert (c.tp, c.fn, c.fp, c.tn) == (4, 1, 2, 13)
    assert c.sensitivity == pytest.approx(0.8)
    assert c.specificity == pytest.approx(13 / 15)
    assert c.mcc == pytest.approx((4 * 13 - 2 * 1) / np.sqrt(6 * 5 * 15 * 14))
    assert c.n_selected == 6


def test_confusion_degenerate_cases():
    # nothing true, nothing selected: undefined ratios reported as 0
    c = confusion(np.zeros(10), np.zeros(10))
    assert c.sensitivity == 0.0
    assert c.specificity == 1.0
    assert c.mcc == 0.0

    # everything true and selected
    c = confusion(np.ones(6), np.ones(6))
    assert c.sensitivity == 1.0
    assert c.specificity == 0.0
    assert c.mcc == 0.0

    perfect = confusion([1, 0, 1, 0], [1, 0, 1, 0])
    assert perfect.mcc == 1.0
    inverted = confusion([0, 1, 0, 1], [1, 0, 1, 0])
    assert inverted.mcc == -1.0


def test_confusion_permutation_invariant():
    rng = np.random.default_rng(0)
    sel = rng.integers(0, 2, size=50)
    tru = rng.integers(0, 2, size=50)
    base = confusion(sel, tru)
    perm = rng.permutation(50)
    shuffled = confusion(sel[perm], tru[perm])
    assert base == shuffled


def test_confusion_accepts_matrices_and_validates():
    sel = np.array([[1, 0], [0, 1]])
    tru = np.array([[1, 0], [0, 0]])
    c = confusion(sel, tru)
    assert (c.tp, c.fp) == (1, 1)
    with pytest.raises(ValueError):
        confusion([1, 0], [1, 0, 0])


def test_squared_error_is_a_sum():
    y = np.array([1.0, 2.0, 3.0])
    yhat = np.array([0.0, 2.0, 5.0])
    assert squared_error(y, yhat) == pytest.approx(5.0)
    assert squared_error(y, y) == 0.0
    with pytest.raises(ValueError):
        squared_error([1.0], [1.0, 2.0])


def test_median_model():
    got = median_model(np.array([0.0, 0.49, 0.5, 0.51, 1.0]))
    assert got.tolist() == [0, 0, 1, 1, 1]
    assert got.dtype == np.uint8
    assert median_model(np.array([[0.6, 0.2]])).tolist() == [[1, 0]]
    with pytest.raises(ValueError):
        median_model(np.array([1.2]))

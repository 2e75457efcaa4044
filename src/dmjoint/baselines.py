"""Two-step Bayesian comparator: count-model selection first, then balance
selection on balances frozen at the posterior-mean composition.

Both stages run ``sampler.run_chain`` and both prediction functions run
``predict.ridge_pass``, so the comparator differs from the joint model only in
freezing the composition: its balances are built once, from psi_bar."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Dataset,
    Hyperparams,
    PartitionSpec,
    log_balances,
    standardize_columns,
)
from .predict import TestSet, estimate_test_balances, ridge_pass
from .sampler import ChainOutput, SamplerConfig, run_chain

__all__ = ["TwoStepOutput", "run_dm_only", "run_balance_selection", "run_two_step",
           "two_step_fitted_y", "two_step_predict_y"]


@dataclass
class TwoStepOutput:
    stage1: ChainOutput
    psi_bar: np.ndarray
    stage2: ChainOutput


def run_dm_only(data: Dataset, hyper: Hyperparams, spec: PartitionSpec,
                config: SamplerConfig) -> ChainOutput:
    """Count-side selection alone: the joint sweep with the response block disabled."""
    return run_chain(data, hyper, spec, replace(config, mode="dm_only"))


def _frozen_balances(psi_bar: np.ndarray, contrast, hyper: Hyperparams):
    """The column-standardized balances of psi_bar with their means and sds: the
    balances stage two selects on and every stage-two sample is fitted on."""
    return standardize_columns(log_balances(psi_bar, contrast, hyper.delta))


def run_balance_selection(data: Dataset, psi_bar: np.ndarray, hyper: Hyperparams,
                          spec: PartitionSpec, config: SamplerConfig) -> ChainOutput:
    """Stage two: balance selection on the column-standardized balances of psi_bar."""
    B_std, _, _ = _frozen_balances(psi_bar, spec.contrast_matrix(), hyper)
    return run_chain(data, hyper, spec, replace(config, mode="lm_only"), balances=B_std)


def run_two_step(data: Dataset, hyper: Hyperparams, spec: PartitionSpec,
                 config: SamplerConfig) -> TwoStepOutput:
    """Run both stages; stage two sees balances built from the stage-one mean
    composition and runs on seed ``config.seed + 1``.

    Stage one is kept without its composition samples: once psi_bar is formed
    nothing reads them, so its ``psi`` is an empty S x 0 x 0 block. A caller
    who wants them runs ``run_dm_only``."""
    stage1 = run_dm_only(data, hyper, spec, config)
    psi_bar = stage1.psi.mean(axis=0)
    psi_bar /= psi_bar.sum(axis=1, keepdims=True)
    # a fresh array, not a slice: a slice would keep the S x N x J buffer alive
    stage1.psi = np.empty((stage1.n_samples, 0, 0))
    stage2 = run_balance_selection(data, psi_bar, hyper, spec,
                                   replace(config, seed=config.seed + 1))
    return TwoStepOutput(stage1=stage1, psi_bar=psi_bar, stage2=stage2)


def _frozen_pass(two_step: TwoStepOutput, data: Dataset, contrast, hyper: Hyperparams,
                 B_test=None):
    """``ridge_pass`` over the stage-two selections, each a slice of the same balances."""
    B_std, means, sds = _frozen_balances(two_step.psi_bar, contrast, hyper)
    xi = two_step.stage2.xi
    selected = ((B_std[:, sel], means[sel], sds[sel]) for sel in xi == 1)
    return ridge_pass(selected, xi, data.Y, hyper, B_test)


def two_step_fitted_y(two_step: TwoStepOutput, data: Dataset, spec: PartitionSpec,
                      hyper: Hyperparams) -> np.ndarray:
    """In-sample estimates averaged over stage-two selections on the frozen balances."""
    return _frozen_pass(two_step, data, spec.contrast_matrix(), hyper)[0]


def two_step_predict_y(two_step: TwoStepOutput, data: Dataset, test: TestSet,
                       spec: PartitionSpec, hyper: Hyperparams) -> np.ndarray:
    """Test predictions: test compositions from the stage-one chain, coefficients
    from ridge fits on the frozen training balances."""
    contrast = spec.contrast_matrix()
    B_test = estimate_test_balances(two_step.stage1, test, contrast, hyper)
    return _frozen_pass(two_step, data, contrast, hyper, B_test)[1]

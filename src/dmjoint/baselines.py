"""Two-step Bayesian comparator: count-model selection first, then balance
selection on balances frozen at the posterior-mean composition.

Both stages run ``sampler.run_chain`` and both prediction functions run
``predict.averaged_response``, so the comparator differs from the joint model
only in freezing the composition."""

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
from .predict import TestSet, averaged_response, estimate_lambda_test, estimate_psi_test
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


def run_balance_selection(data: Dataset, psi_bar: np.ndarray, hyper: Hyperparams,
                          spec: PartitionSpec, config: SamplerConfig) -> ChainOutput:
    """Stage two: balance selection on the column-standardized balances of psi_bar."""
    B_std, _, _ = standardize_columns(
        log_balances(psi_bar, spec.contrast_matrix(), hyper.delta))
    return run_chain(data, hyper, spec, replace(config, mode="lm_only"), balances=B_std)


def run_two_step(data: Dataset, hyper: Hyperparams, spec: PartitionSpec,
                 config: SamplerConfig, stage2_seed_offset: int = 1) -> TwoStepOutput:
    """Run both stages; stage two sees balances built from the stage-one mean composition."""
    stage1 = run_dm_only(data, hyper, spec, config)
    psi_bar = stage1.psi.mean(axis=0)
    psi_bar /= psi_bar.sum(axis=1, keepdims=True)
    stage2 = run_balance_selection(data, psi_bar, hyper, spec,
                                   replace(config, seed=config.seed + stage2_seed_offset))
    return TwoStepOutput(stage1=stage1, psi_bar=psi_bar, stage2=stage2)


def _frozen_psi(two_step: TwoStepOutput) -> np.ndarray:
    """psi_bar repeated for every stage-two sample."""
    psi_bar = two_step.psi_bar
    return np.broadcast_to(psi_bar, (two_step.stage2.n_samples, *psi_bar.shape))


def two_step_fitted_y(two_step: TwoStepOutput, data: Dataset, spec: PartitionSpec,
                      hyper: Hyperparams) -> np.ndarray:
    """In-sample estimates averaged over stage-two selections on the frozen balances."""
    return averaged_response(_frozen_psi(two_step), two_step.stage2.xi, data.Y, spec, hyper)


def two_step_predict_y(two_step: TwoStepOutput, data: Dataset, test: TestSet,
                       spec: PartitionSpec, hyper: Hyperparams) -> np.ndarray:
    """Test predictions: test compositions from the stage-one chain, coefficients
    from ridge fits on the frozen training balances."""
    psi_test = estimate_psi_test(
        estimate_lambda_test(two_step.stage1, test.X_test), test.Z_test
    )
    return averaged_response(_frozen_psi(two_step), two_step.stage2.xi, data.Y, spec,
                             hyper, psi_test)

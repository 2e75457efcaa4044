"""Two-step Bayesian comparator: count-model selection first, then balance
selection on balances frozen at the posterior-mean composition.

Both stages run ``sampler.run_chain``, and stage two keeps its samples'
fitted values and linear predictor as a joint chain does, so
``predict.fitted_y`` and ``predict.predict_at_balances`` read it. The
comparator differs from the joint model only in freezing the composition:
its balances are built once, from psi_bar."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Dataset, Hyperparams, PartitionSpec, log_balances
from .predict import TestSet, estimate_test_balances, fitted_y, predict_at_balances
from .sampler import ChainOutput, SamplerConfig, run_chain

__all__ = ["TwoStepOutput", "run_dm_only", "run_balance_selection", "run_two_step",
           "two_step_fitted_y", "two_step_predict_y"]


@dataclass
class TwoStepOutput:
    stage1: ChainOutput
    stage2: ChainOutput


def run_dm_only(data: Dataset, hyper: Hyperparams, spec: PartitionSpec,
                config: SamplerConfig) -> ChainOutput:
    """Count-side selection alone: the joint sweep with the response block disabled."""
    return run_chain(data, hyper, spec, replace(config, mode="dm_only"))


def run_balance_selection(data: Dataset, psi_bar: np.ndarray, hyper: Hyperparams,
                          spec: PartitionSpec, config: SamplerConfig) -> ChainOutput:
    """Stage two: balance selection on the balances of psi_bar, which the chain
    standardizes once and fits every retained sample on."""
    B = log_balances(psi_bar, spec.contrast_matrix(), hyper.delta)
    return run_chain(data, hyper, spec, replace(config, mode="lm_only"), balances=B)


def run_two_step(data: Dataset, hyper: Hyperparams, spec: PartitionSpec,
                 config: SamplerConfig) -> TwoStepOutput:
    """Run both stages; stage two sees balances built from the stage-one mean
    composition and runs on seed ``config.seed + 1``.

    psi_bar is stage one's ``psi_mean`` with its rows normalised: the chain
    sums its compositions as it samples them and keeps no sample of them."""
    stage1 = run_dm_only(data, hyper, spec, config)
    psi_bar = stage1.psi_mean / stage1.psi_mean.sum(axis=1, keepdims=True)
    stage2 = run_balance_selection(data, psi_bar, hyper, spec,
                                   replace(config, seed=config.seed + 1))
    return TwoStepOutput(stage1=stage1, stage2=stage2)


def two_step_fitted_y(two_step: TwoStepOutput, hyper: Hyperparams) -> np.ndarray:
    """In-sample estimates: the stage-two samples' mean fitted values."""
    return fitted_y(two_step.stage2, hyper)


def two_step_predict_y(two_step: TwoStepOutput, test: TestSet, spec: PartitionSpec,
                       hyper: Hyperparams) -> np.ndarray:
    """Test predictions: test compositions from the stage-one chain, the linear
    predictor from the stage-two samples' ridge fits on the frozen balances."""
    B_test = estimate_test_balances(two_step.stage1, test, spec.contrast_matrix(), hyper)
    return predict_at_balances(two_step.stage2, B_test, hyper)

"""Batch front door: simulate replicates, fit models, predict, evaluate.

Every command is deterministic given its flags, seed, and inputs, and leaves a
manifest in its output directory so any reported number can be re-derived.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import io as dio
from .baselines import (
    TwoStepOutput,
    run_two_step,
    two_step_fitted_y,
    two_step_predict_y,
)
from .metrics import confusion, median_model, squared_error
from .model import Hyperparams, PartitionSpec, sbp_pivot
from .predict import fitted_y, pointwise_loglik, predict_y
from .prep import preprocess
from .sampler import SamplerConfig, run_chain
from .simulate import SimConfig, gen_replicate, replicate_rng

HYPER_FLAGS = [f.name for f in fields(Hyperparams)]
# --model decides the sampler modes, so mode is recorded but not a flag.
SAMPLER_FLAGS = [f.name for f in fields(SamplerConfig) if f.name != "mode"]
# The balance partition a fit used, in PartitionSpec's file format; predict
# rebuilds the training and test balances from it.
PARTITION_FILE = "partition.txt"


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_hyper_args(p):
    defaults = Hyperparams()
    for name in HYPER_FLAGS:
        p.add_argument(_flag(name), type=float, default=getattr(defaults, name),
                       dest=name)


def _add_sampler_args(p):
    defaults = SamplerConfig()
    for name in SAMPLER_FLAGS:
        default = getattr(defaults, name)
        kind = type(default)
        p.add_argument(_flag(name), type=kind, default=default, dest=name)


def _hyper_from(args) -> Hyperparams:
    return Hyperparams(**{k: getattr(args, k) for k in HYPER_FLAGS})


def _config_from(args) -> SamplerConfig:
    return SamplerConfig(**{k: getattr(args, k) for k in SAMPLER_FLAGS})


def _derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = SimConfig(
        N=args.n, P=args.p, J=args.j, omega=args.omega, d=args.d,
        n_true_cov=0 if args.null else args.n_true_cov,
        n_true_bal=0 if args.null else args.n_true_bal,
        sigma_eps=args.sigma_eps, delta=args.delta, seed=args.seed,
    )
    for r in range(args.replicates):
        rng = replicate_rng(args.seed, r)
        train, test, truth = gen_replicate(base, rng)
        dio.write_replicate(out / f"rep{r:03d}", train, test, truth)
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    dio.write_manifest(out, "simulate",
                       {**flags, "out": str(out)}, args.seed, [], started)
    print(f"wrote {args.replicates} replicates to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _fit_one(repdir: Path, outdir: Path, model: str, hyper: Hyperparams,
             config: SamplerConfig, partition_file: str | None):
    started = time.time()
    train_raw = dio.read_train(repdir)
    train, _, prep_stats = preprocess(train_raw)
    spec = (PartitionSpec.from_file(partition_file) if partition_file
            else sbp_pivot(train.n_taxa))
    outdir.mkdir(parents=True, exist_ok=True)
    extra = {"dataset": str(repdir), "preprocess": prep_stats, "model": model}
    if model == "joint":
        chain = run_chain(train, hyper, spec, config)
        dio.write_chain(outdir, chain, hyper, extra=extra)
        sel_zeta = median_model(chain.mppi_zeta)
        sel_xi = median_model(chain.mppi_xi)
        yhat = fitted_y(chain, train, spec, hyper)
    else:  # dmlm-bayes
        two = run_two_step(train, hyper, spec, config)
        dio.write_chain(outdir / "stage1", two.stage1, hyper, extra=extra)
        dio.write_chain(outdir / "stage2", two.stage2, hyper, extra=extra)
        dio.write_matrix(outdir / "psi_bar.csv", two.psi_bar, "psi")
        sel_zeta = median_model(two.stage1.mppi_zeta)
        sel_xi = median_model(two.stage2.mppi_xi)
        yhat = two_step_fitted_y(two, train, spec, hyper)
        with open(outdir / "summary.json", "w") as f:
            json.dump({"model": model, **extra,
                       "hyperparams": asdict(hyper), "config": asdict(config)},
                      f, indent=2, sort_keys=True)
            f.write("\n")
    spec.to_file(outdir / PARTITION_FILE)
    dio.write_matrix(outdir / "selected_zeta.csv", sel_zeta, "zeta", integer=True)
    dio.write_matrix(outdir / "selected_xi.csv", sel_xi[:, None], "xi", integer=True)
    dio.write_matrix(outdir / "fitted_y.csv", yhat[:, None] + prep_stats["y_mean"], "yhat")
    dio.write_manifest(
        outdir, "fit",
        {"model": model, "dataset": str(repdir),
         "hyperparams": asdict(hyper), "sampler": asdict(config)},
        config.seed, [repdir], started)
    n_cov = int(sel_zeta.sum())
    n_bal = int(sel_xi.sum())
    print(f"{outdir}: selected {n_cov} covariate-taxon pairs, {n_bal} balances")


def cmd_fit(args) -> int:
    repdir = Path(args.dataset)
    if not repdir.exists():
        print(f"error: dataset directory {repdir} not found", file=sys.stderr)
        return 1
    hyper, config = _hyper_from(args), _config_from(args)
    out = Path(args.out)
    if (repdir / "train_y.csv").exists():
        _fit_one(repdir, out, args.model, hyper, config, args.partition_file)
        return 0
    reps = sorted(d for d in repdir.iterdir()
                  if d.is_dir() and (d / "train_y.csv").exists())
    if not reps:
        print(f"error: no replicate directories under {repdir}", file=sys.stderr)
        return 1
    tasks = [
        (rep, out / rep.name, args.model, hyper,
         replace(config, seed=_derived_seed(args.seed, r)), args.partition_file)
        for r, rep in enumerate(reps)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            list(ex.map(_fit_one_star, tasks))
    else:
        for t in tasks:
            _fit_one(*t)
    return 0


def _fit_one_star(t):
    return _fit_one(*t)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _load_two_step(rundir: Path) -> TwoStepOutput:
    stage1, _, _ = dio.read_chain(rundir / "stage1")
    stage2, _, _ = dio.read_chain(rundir / "stage2")
    psi_bar = dio.read_matrix(rundir / "psi_bar.csv")
    return TwoStepOutput(stage1=stage1, psi_bar=psi_bar, stage2=stage2)


def cmd_predict(args) -> int:
    started = time.time()
    rundir = Path(args.chain)
    two_step = (rundir / "stage1").exists()
    summary_path = rundir / "summary.json"
    with open(summary_path) as f:
        summary = json.load(f)
    hyper = Hyperparams(**summary["hyperparams"])
    if two_step:
        two = _load_two_step(rundir)
    else:
        chain, _, _ = dio.read_chain(rundir)
    spec = PartitionSpec.from_file(rundir / PARTITION_FILE)
    train_dir = Path(args.train_dir or summary["dataset"])
    test_dir = Path(args.test_dir or train_dir)
    train_raw = dio.read_train(train_dir)
    test_raw = dio.read_test(test_dir)
    counts = two.stage1 if two_step else chain
    _, n_fit, j_fit = counts.psi.shape
    for dim, fitted, given in (("N", n_fit, train_raw.n_subjects),
                               ("J", j_fit, train_raw.n_taxa),
                               ("J", spec.n_taxa, train_raw.n_taxa),
                               ("P", counts.phi.shape[2], train_raw.n_covariates)):
        if fitted != given:
            print(f"error: the fit in {rundir} has {dim}={fitted} but the training "
                  f"data in {train_dir} has {dim}={given}", file=sys.stderr)
            return 1
    n_taxa, n_cov = test_raw.Z_test.shape[1], test_raw.X_test.shape[1]
    if n_taxa != train_raw.n_taxa or n_cov != train_raw.n_covariates:
        print(
            f"error: test dimensions (J={n_taxa}, P={n_cov}) do not match training "
            f"(J={train_raw.n_taxa}, P={train_raw.n_covariates})", file=sys.stderr)
        return 1
    train, test, prep_stats = preprocess(train_raw, test_raw)
    if two_step:
        yhat = two_step_predict_y(two, train, test, spec, hyper)
        loglik = None
    else:
        yhat = predict_y(chain, train, test, spec, hyper)
        loglik = pointwise_loglik(chain, train, spec, hyper)
    out = Path(args.out or rundir / "predictions")
    out.mkdir(parents=True, exist_ok=True)
    dio.write_matrix(out / "predictions.csv",
                     yhat[:, None] + prep_stats["y_mean"], "yhat")
    if loglik is not None:
        dio.write_matrix(out / "loglik.csv", loglik, "s")
    dio.write_manifest(out, "predict",
                       {"chain": str(rundir), "test_dir": str(test_dir)},
                       summary.get("seed"), [rundir, test_dir], started)
    print(f"wrote predictions for {len(yhat)} subjects to {out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _evaluate_run(rundir: Path) -> dict:
    manifest = dio.read_manifest(rundir)
    cfg = manifest["config"]
    hyper = cfg["hyperparams"]
    repdir = Path(cfg["dataset"])
    truth = dio.read_truth(repdir)
    sel_zeta = dio.read_matrix(rundir / "selected_zeta.csv", integer=True)
    sel_xi = dio.read_matrix(rundir / "selected_xi.csv", integer=True).ravel()
    cov = confusion(sel_zeta, truth.zeta_true)
    bal = confusion(sel_xi, truth.xi_true)
    row = {
        "run": str(rundir),
        "replicate": repdir.name,
        "model": cfg["model"],
        "a": hyper["a"], "b": hyper["b"],
        "a_m": hyper["a_m"], "b_m": hyper["b_m"],
        "b0": hyper["b0"],
        "cov_selected": cov.n_selected,
        "cov_sensitivity": cov.sensitivity,
        "cov_specificity": cov.specificity,
        "cov_mcc": cov.mcc,
        "bal_selected": bal.n_selected,
        "bal_sensitivity": bal.sensitivity,
        "bal_specificity": bal.specificity,
        "bal_mcc": bal.mcc,
        "mse_sum": "", "mse_mean": "", "pmse_sum": "", "pmse_mean": "",
    }
    fitted = rundir / "fitted_y.csv"
    if fitted.exists():
        yhat = dio.read_matrix(fitted).ravel()
        y = dio.read_matrix(repdir / "train_y.csv").ravel()
        row["mse_sum"] = squared_error(y, yhat)
        row["mse_mean"] = row["mse_sum"] / len(y)
    pred = rundir / "predictions" / "predictions.csv"
    if pred.exists() and (repdir / "test_y.csv").exists():
        yhat = dio.read_matrix(pred).ravel()
        y = dio.read_matrix(repdir / "test_y.csv").ravel()
        row["pmse_sum"] = squared_error(y, yhat)
        row["pmse_mean"] = row["pmse_sum"] / len(y)
    return row


_METRIC_COLS = ["cov_selected", "cov_sensitivity", "cov_specificity", "cov_mcc",
                "bal_selected", "bal_sensitivity", "bal_specificity", "bal_mcc",
                "mse_sum", "mse_mean", "pmse_sum", "pmse_mean"]


def _aggregate(rows, group_keys):
    groups = {}
    for row in rows:
        key = tuple(row[k] for k in group_keys)
        groups.setdefault(key, []).append(row)
    out = []
    for key, members in sorted(groups.items(), key=lambda kv: [str(x) for x in kv[0]]):
        agg = dict(zip(group_keys, key))
        agg["n_replicates"] = len(members)
        for col in _METRIC_COLS:
            vals = [m[col] for m in members if m[col] != ""]
            if vals:
                agg[col + "_mean"] = float(np.mean(vals))
                agg[col + "_sd"] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            else:
                agg[col + "_mean"] = ""
                agg[col + "_sd"] = ""
        out.append(agg)
    return out


def _write_rows(path, rows):
    if not rows:
        return
    cols = list(rows[0].keys())
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)


def cmd_evaluate(args) -> int:
    started = time.time()
    rows = []
    for rundir in args.runs:
        rundir = Path(rundir)
        if not (rundir / "manifest.json").exists():
            print(f"error: {rundir} has no manifest", file=sys.stderr)
            return 1
        try:
            rows.append(_evaluate_run(rundir))
        except FileNotFoundError as e:
            print(f"error: missing truth or selection file for {rundir}: {e}",
                  file=sys.stderr)
            return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "report.csv", rows)
    group = ["model", "a", "b", "a_m", "b_m", "b0"]
    _write_rows(out / "aggregate.csv", _aggregate(rows, group))
    if args.sweep_b0:
        wanted = [float(v) for v in args.sweep_b0.split(",")]
        sweep_rows = [r for r in rows if r["b0"] in wanted]
        _write_rows(out / "sweep_b0.csv",
                    _aggregate(sweep_rows, ["model", "b", "b0"]))
    dio.write_manifest(out, "evaluate",
                       {"runs": [str(r) for r in args.runs],
                        "sweep_b0": args.sweep_b0},
                       None, args.runs, started)
    print(f"evaluated {len(rows)} runs -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmjoint",
        description="Joint Bayesian covariate and balance selection for "
                    "count compositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim_defaults = SimConfig()
    p = sub.add_parser("simulate", help="generate replicate datasets")
    p.add_argument("--out", required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=sim_defaults.N)
    p.add_argument("--p", type=int, default=sim_defaults.P)
    p.add_argument("--j", type=int, default=sim_defaults.J)
    p.add_argument("--omega", type=float, default=sim_defaults.omega)
    p.add_argument("--d", type=float, default=sim_defaults.d)
    p.add_argument("--n-true-cov", type=int, default=sim_defaults.n_true_cov)
    p.add_argument("--n-true-bal", type=int, default=sim_defaults.n_true_bal)
    p.add_argument("--sigma-eps", type=float, default=sim_defaults.sigma_eps)
    p.add_argument("--delta", type=float, default=sim_defaults.delta)
    p.add_argument("--null", action="store_true",
                   help="generate data with no true signals")
    p.set_defaults(func=cmd_simulate)

    # no prefix matching: "--mode" must not be read as "--model"
    p = sub.add_parser("fit", help="fit the joint model or the two-step baseline",
                       allow_abbrev=False)
    p.add_argument("dataset", help="replicate directory or root of rep*/ dirs")
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=["joint", "dmlm-bayes"], default="joint")
    p.add_argument("--partition-file", default=None)
    p.add_argument("--jobs", type=int, default=1)
    _add_hyper_args(p)
    _add_sampler_args(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="out-of-sample prediction from a fitted chain")
    p.add_argument("chain", help="chain directory written by fit")
    p.add_argument("--test-dir", default=None)
    p.add_argument("--train-dir", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score runs against ground truth")
    p.add_argument("runs", nargs="+", help="fitted run directories")
    p.add_argument("--out", required=True)
    p.add_argument("--sweep-b0", default=None,
                   help="comma-separated b0 values for the sensitivity layout")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

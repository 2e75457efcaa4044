"""Batch front door: simulate replicates, fit models, predict, evaluate.

Every command is deterministic given its flags, seed, and inputs, and leaves a
manifest in its output directory so any reported number can be re-derived.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import sys
import time
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
from .prep import preprocess, preprocess_test
from .sampler import SamplerConfig, run_chain
from .simulate import SimConfig, gen_replicate, replicate_rng

HYPER_FLAGS = [f.name for f in fields(Hyperparams)]
# --model decides the sampler modes, so mode is recorded but not a flag.
SAMPLER_FLAGS = [f.name for f in fields(SamplerConfig) if f.name != "mode"]
# The SimConfig fields simulate exposes, in --help order.
SIM_FLAGS = ["N", "P", "J", "omega", "d", "n_true_cov", "n_true_bal", "sigma_eps", "delta"]
# The balance partition a fit used, in PartitionSpec's file format; predict
# builds the test balances from it.
PARTITION_FILE = "partition.txt"


def _add_config_args(p, defaults, names):
    """One flag per config field (--burn-in for burn_in, --n for N), typed and
    defaulted by the field's default."""
    for name in names:
        default, dest = getattr(defaults, name), name.lower()
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default,
                       dest=dest)


def _derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _one_blas_thread():
    """Set each OpenBLAS listed in /proc/self/maps to one thread, where it has a setter:
    a chain's matrices are too small for a second thread to pay for the core it takes,
    and the bits of a product then do not depend on the thread count."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return
    for lib in libs:
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                break


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    _one_blas_thread()
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sim = {name: getattr(args, name.lower()) for name in SIM_FLAGS}
    base = SimConfig(**sim, seed=args.seed)
    for r in range(args.replicates):
        rng = replicate_rng(args.seed, r)
        train, test, truth = gen_replicate(base, rng)
        dio.write_replicate(out / f"rep{r:03d}", train, test, truth)
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    dio.write_manifest(out, "simulate", {**flags, "out": str(out)}, started)
    print(f"wrote {args.replicates} replicates to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _fit_one(repdir: Path, outdir: Path, model: str, hyper: Hyperparams,
             config: SamplerConfig, partition_file: str | None):
    _one_blas_thread()
    started = time.time()
    train, prep_stats = preprocess(dio.read_train(repdir))
    spec = (PartitionSpec.from_file(partition_file) if partition_file
            else sbp_pivot(train.n_taxa))
    outdir.mkdir(parents=True, exist_ok=True)
    if model == "joint":
        chain = run_chain(train, hyper, spec, config)
        dio.write_chain(outdir, chain)
        sel_zeta = median_model(chain.mppi_zeta)
        sel_xi = median_model(chain.mppi_xi)
        yhat = fitted_y(chain, hyper)
    else:  # dmlm-bayes
        two = run_two_step(train, hyper, spec, config)
        dio.write_chain(outdir / "stage1", two.stage1)
        dio.write_chain(outdir / "stage2", two.stage2)
        sel_zeta = median_model(two.stage1.mppi_zeta)
        sel_xi = median_model(two.stage2.mppi_xi)
        yhat = two_step_fitted_y(two, hyper)
    spec.to_file(outdir / PARTITION_FILE)
    dio.write_matrix(outdir / "selected_zeta.csv", sel_zeta, "zeta", integer=True)
    dio.write_matrix(outdir / "selected_xi.csv", sel_xi[:, None], "xi", integer=True)
    dio.write_matrix(outdir / "fitted_y.csv", yhat[:, None] + prep_stats["y_mean"], "yhat")
    # the fit's facts, recorded once; each chain's summary records the mode it ran
    dio.write_manifest(outdir, "fit", {
        "model": model, "dataset": str(repdir.resolve()), "hyperparams": asdict(hyper),
        "sampler": {k: getattr(config, k) for k in SAMPLER_FLAGS}, "preprocess": prep_stats},
        started)
    print(f"{outdir}: selected {int(sel_zeta.sum())} covariate-taxon pairs, "
          f"{int(sel_xi.sum())} balances")


def cmd_fit(args) -> int:
    repdir = Path(args.dataset)
    hyper = Hyperparams(**{k: getattr(args, k) for k in HYPER_FLAGS})
    config = SamplerConfig(**{k: getattr(args, k) for k in SAMPLER_FLAGS})
    out = Path(args.out)
    if (repdir / "train_y.csv").exists():
        _fit_one(repdir, out, args.model, hyper, config, args.partition_file)
        return 0
    reps = sorted(d for d in repdir.iterdir()
                  if d.is_dir() and (d / "train_y.csv").exists())
    if not reps:
        raise ValueError(f"no replicate directories under {repdir}")
    tasks = [
        (rep, out / rep.name, args.model, hyper,
         replace(config, seed=_derived_seed(args.seed, r)), args.partition_file)
        for r, rep in enumerate(reps)
    ]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled fit pays for it

        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            list(ex.map(_fit_one, *zip(*tasks)))
    else:
        for t in tasks:
            _fit_one(*t)
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def cmd_predict(args) -> int:
    _one_blas_thread()
    started = time.time()
    rundir = Path(args.chain)
    fit = dio.read_fit(rundir)
    hyper, prep_stats = fit["hyperparams"], fit["preprocess"]
    two_step = fit["model"] == "dmlm-bayes"
    # the chain that holds the count blocks: the joint one, or stage 1
    chain = dio.read_chain(rundir / "stage1" if two_step else rundir)[0]
    stage2 = dio.read_chain(rundir / "stage2")[0] if two_step else None
    spec = PartitionSpec.from_file(rundir / PARTITION_FILE)
    test_dir = Path(args.test_dir or fit["dataset"]).resolve()
    test_raw = dio.read_test(test_dir)
    j_fit, p_fit = chain.phi_shape[1:]
    n_taxa, n_cov = test_raw.Z_test.shape[1], test_raw.X_test.shape[1]
    if (n_taxa, n_cov) != (j_fit, p_fit) or spec.n_taxa != j_fit:
        raise ValueError(f"test dimensions (J={n_taxa}, P={n_cov}) do not match the fit "
                         f"in {rundir} (J={j_fit}, P={p_fit}, partition of J={spec.n_taxa})")
    if any(prep_stats[k].shape != (p_fit,) for k in ("x_mean", "x_sd")):
        raise ValueError(f"{rundir / 'manifest.json'} records x_mean and x_sd of shapes "
                         f"{prep_stats['x_mean'].shape} and {prep_stats['x_sd'].shape}, "
                         f"not the fit's ({p_fit},); re-run fit to rewrite it")
    test = preprocess_test(test_raw, prep_stats)
    if two_step:
        two = TwoStepOutput(stage1=chain, stage2=stage2)
        yhat = two_step_predict_y(two, test, spec, hyper)
        loglik = None
    else:
        yhat = predict_y(chain, test, spec, hyper)
        loglik = pointwise_loglik(chain, hyper)
    out = Path(args.out or rundir / "predictions")
    out.mkdir(parents=True, exist_ok=True)
    dio.write_matrix(out / "predictions.csv", yhat[:, None] + prep_stats["y_mean"], "yhat")
    if loglik is not None:
        dio.write_matrix(out / "loglik.csv", loglik, "s")
    dio.write_manifest(out, "predict", {"chain": str(rundir), "test_dir": str(test_dir)},
                       started)
    print(f"wrote predictions for {len(yhat)} subjects to {out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _squared_errors(name: str, yhat: Path, y: Path | None) -> dict:
    """``<name>_sum`` and ``<name>_mean`` of the predictions in ``yhat`` against
    the responses in ``y``, blank where either file is missing."""
    if y is None or not (yhat.exists() and y.exists()):
        return {name + "_sum": "", name + "_mean": ""}
    observed = dio.read_matrix(y)
    total = squared_error(observed, dio.read_matrix(yhat))
    return {name + "_sum": total, name + "_mean": total / len(observed)}


def _evaluate_run(rundir: Path) -> tuple[dict, dict]:
    """The run's recorded settings, after its directory and replicate, and its
    scores against the replicate's truth and responses."""
    fit = dio.read_fit(rundir)
    repdir = fit["dataset"]
    settings = {"run": str(rundir), "replicate": repdir.name, "model": fit["model"],
                **asdict(fit["hyperparams"]), **fit["sampler"]}
    truth = dio.read_truth(repdir)
    scores = {}
    for name, block, true in (("cov", "zeta", truth.zeta_true), ("bal", "xi", truth.xi_true)):
        c = confusion(dio.read_matrix(rundir / f"selected_{block}.csv", integer=True), true)
        scores.update({f"{name}_selected": c.n_selected, f"{name}_sensitivity": c.sensitivity,
                       f"{name}_specificity": c.specificity, f"{name}_mcc": c.mcc})
    scores.update(_squared_errors("mse", rundir / "fitted_y.csv", repdir / "train_y.csv"))
    pred = rundir / "predictions"
    # the test set predict read, which --test-dir may have set
    test_y = (dio.read_test_dir(pred) / "test_y.csv"
              if (pred / "predictions.csv").exists() else None)
    scores.update(_squared_errors("pmse", pred / "predictions.csv", test_y))
    return settings, scores


def _aggregate(runs):
    """Means and sds of the scores of the runs that share every setting but
    their directory, replicate and seed."""
    groups = {}
    for settings, scores in runs:
        key = tuple((k, v) for k, v in settings.items()
                    if k not in ("run", "replicate", "seed"))
        groups.setdefault(key, []).append(scores)
    out = []
    for key, members in sorted(groups.items()):
        agg = {**dict(key), "n_replicates": len(members)}
        for col in members[0]:
            vals = [m[col] for m in members if m[col] != ""]
            agg[col + "_mean"] = float(np.mean(vals)) if vals else ""
            agg[col + "_sd"] = (float(np.std(vals, ddof=1)) if len(vals) > 1
                                else 0.0 if vals else "")
        out.append(agg)
    return out


def _write_rows(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_evaluate(args) -> int:
    started = time.time()
    runs = [_evaluate_run(Path(rundir)) for rundir in args.runs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "report.csv", [{**settings, **scores} for settings, scores in runs])
    _write_rows(out / "aggregate.csv", _aggregate(runs))
    dio.write_manifest(out, "evaluate", {"runs": [str(r) for r in args.runs]}, started)
    print(f"evaluated {len(runs)} runs -> {out}")
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

    p = sub.add_parser("simulate", help="generate replicate datasets")
    p.add_argument("--out", required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_config_args(p, SimConfig(), SIM_FLAGS)
    p.set_defaults(func=cmd_simulate)

    # no prefix matching: "--mode" must not be read as "--model"
    p = sub.add_parser("fit", help="fit the joint model or the two-step baseline",
                       allow_abbrev=False)
    p.add_argument("dataset", help="replicate directory or root of rep*/ dirs")
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=["joint", "dmlm-bayes"], default="joint")
    p.add_argument("--partition-file", default=None)
    p.add_argument("--jobs", type=int, default=1)
    _add_config_args(p, Hyperparams(), HYPER_FLAGS)
    _add_config_args(p, SamplerConfig(), SAMPLER_FLAGS)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="out-of-sample prediction from a fitted chain")
    p.add_argument("chain", help="chain directory written by fit")
    p.add_argument("--test-dir", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score runs against ground truth")
    p.add_argument("runs", nargs="+", help="fitted run directories")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

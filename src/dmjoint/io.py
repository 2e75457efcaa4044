"""File persistence for datasets, chains, and reports.

Datasets, selections, predictions and reports are UTF-8 CSV with a header
row; reals are written with 17 significant digits so write -> read -> write
round-trips byte-wise, counts as plain integers. A chain is one raw ``.npy``
file per block of ``_BLOCKS`` (see ``sampler.ChainOutput``), in its in-memory
shape and dtype, so it round-trips bitwise; a block a mode does not keep is
written empty. Settings, acceptance counts and the indicator shapes are in
the chain's ``summary.json``; a fit's joint or stage-one chain also records
there the dataset it read and the preprocessing statistics that ``predict``
applies to a test set. Each chain records the ``schema_version`` it was
written under, and ``read_chain`` refuses any other version, a missing
block, a change block that is not strictly ascending indices, or a block of
the wrong shape, asking for a re-fit.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .model import Dataset, Hyperparams, require_finite
from .predict import TestSet
from .sampler import ChainOutput, SamplerConfig
from .simulate import GroundTruth

FLOAT_FMT = "%.17g"
SCHEMA_VERSION = 12  # of chains and manifests; bump on any change to a chain's files


def write_matrix(path, arr, prefix: str, integer: bool = False):
    arr = np.atleast_2d(np.asarray(arr))
    header = ",".join(f"{prefix}{k + 1}" for k in range(arr.shape[1]))
    fmt = "%d" if integer else FLOAT_FMT
    np.savetxt(path, arr, fmt=fmt, delimiter=",", header=header, comments="")


def read_matrix(path, integer: bool = False) -> np.ndarray:
    try:
        out = np.loadtxt(path, delimiter=",", skiprows=1,
                         dtype=np.int64 if integer else float, ndmin=2)
    except ValueError as e:
        raise ValueError(f"malformed file {path}: {e}") from e
    return require_finite(out, str(path))


def write_manifest(outdir, command: str, config: dict, seed, inputs, started: float):
    outdir = Path(outdir)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "output": str(outdir),
        "duration_s": round(time.time() - started, 3),
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
    }
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def read_manifest(rundir) -> dict:
    with open(Path(rundir) / "manifest.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Replicate datasets
# ---------------------------------------------------------------------------


def write_replicate(repdir, train: Dataset, test: TestSet, truth: GroundTruth):
    repdir = Path(repdir)
    repdir.mkdir(parents=True, exist_ok=True)
    write_matrix(repdir / "train_y.csv", train.Y[:, None], "y")
    write_matrix(repdir / "train_z.csv", train.Z, "z", integer=True)
    write_matrix(repdir / "train_x.csv", train.X, "x")
    write_matrix(repdir / "test_y.csv", test.Y_test[:, None], "y")
    write_matrix(repdir / "test_z.csv", test.Z_test, "z", integer=True)
    write_matrix(repdir / "test_x.csv", test.X_test, "x")
    write_matrix(repdir / "truth_zeta.csv", truth.zeta_true, "zeta", integer=True)
    write_matrix(repdir / "truth_phi.csv", truth.phi_true, "phi")
    write_matrix(repdir / "truth_alpha.csv", truth.alpha_true[:, None], "alpha")
    write_matrix(repdir / "truth_xi.csv", truth.xi_true[:, None], "xi", integer=True)
    write_matrix(repdir / "truth_beta.csv", truth.beta_true[:, None], "beta")
    write_matrix(repdir / "truth_psi.csv", truth.psi_star, "psi")


def read_train(repdir) -> Dataset:
    repdir = Path(repdir)
    return Dataset(
        Y=read_matrix(repdir / "train_y.csv").ravel(),
        Z=read_matrix(repdir / "train_z.csv", integer=True),
        X=read_matrix(repdir / "train_x.csv"),
    )


def read_test(repdir) -> TestSet:
    repdir = Path(repdir)
    y_path = repdir / "test_y.csv"
    return TestSet(
        Z_test=read_matrix(repdir / "test_z.csv", integer=True),
        X_test=read_matrix(repdir / "test_x.csv"),
        Y_test=read_matrix(y_path).ravel() if y_path.exists() else None,
    )


def read_truth(repdir) -> GroundTruth:
    repdir = Path(repdir)
    return GroundTruth(
        zeta_true=read_matrix(repdir / "truth_zeta.csv", integer=True),
        phi_true=read_matrix(repdir / "truth_phi.csv"),
        alpha_true=read_matrix(repdir / "truth_alpha.csv").ravel(),
        xi_true=read_matrix(repdir / "truth_xi.csv", integer=True).ravel(),
        beta_true=read_matrix(repdir / "truth_beta.csv").ravel(),
        psi_star=read_matrix(repdir / "truth_psi.csv"),
    )


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


_BLOCKS = ("alpha_mean", "zeta_changes", "phi_mean", "predictor", "fits", "y",
           "xi_changes", "log_posterior")


def write_chain(outdir, chain: ChainOutput, hyper: Hyperparams, extra: dict | None = None):
    """One ``<block>.npy`` per chain block, plus a JSON summary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in _BLOCKS:
        np.save(outdir / f"{name}.npy", getattr(chain, name))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(chain.config),
        "hyperparams": asdict(hyper),
        "acceptance": {k: {"accepted": int(v[0]), "proposed": int(v[1]),
                           "rate": (v[0] / v[1]) if v[1] else None}
                       for k, v in chain.accept.items()},
        "phi_shape": list(chain.phi_shape),
        "xi_shape": list(chain.xi_shape),
    }
    if extra:
        summary.update(extra)
    with open(outdir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")


def _check_changes(path, changes, shape):
    """Refuse a change block that is not strictly ascending flat indices into
    the indicator block of ``shape``."""
    size = int(np.prod(shape))
    if (changes.ndim != 1 or changes.dtype != np.int64
            or np.any(np.diff(changes) <= 0)
            or (changes.size and not 0 <= changes[0] <= changes[-1] < size)):
        raise ValueError(f"{path} is not a strictly ascending int64 block of indices in "
                         f"[0, {size}), the {'x'.join(map(str, shape))} indicator block's "
                         "changes; re-run fit to rewrite it")


def read_chain(rundir) -> tuple[ChainOutput, Hyperparams, dict]:
    rundir = Path(rundir)
    path = rundir / "summary.json"
    with open(path) as f:
        summary = json.load(f)
    version = summary.get("schema_version", "10 or older")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path} is of chain schema {version}, but this version of dmjoint "
                         f"reads schema {SCHEMA_VERSION}; re-run fit to rewrite it")
    missing = [name for name in _BLOCKS if not (rundir / f"{name}.npy").exists()]
    if missing:
        raise ValueError(f"{rundir} is missing the chain block {missing[0]}.npy; "
                         "re-run fit to rewrite it")
    blocks = {name: np.load(rundir / f"{name}.npy", allow_pickle=False)
              for name in _BLOCKS}
    try:
        accept = {k: (v["accepted"], v["proposed"])
                  for k, v in summary["acceptance"].items()}
        shapes = {k: tuple(summary[k]) for k in ("phi_shape", "xi_shape")}
        for name, shape in (("zeta_changes", shapes["phi_shape"]),
                            ("xi_changes", shapes["xi_shape"])):
            _check_changes(rundir / f"{name}.npy", blocks[name], shape)
        chain = ChainOutput(**blocks, **shapes, accept=accept,
                            config=SamplerConfig(**summary["config"]))
        hyper = Hyperparams(**summary["hyperparams"])
    except KeyError as e:
        raise ValueError(f"{path} has no key {e}; re-run fit to rewrite it") from e
    except TypeError as e:
        raise ValueError(f"{path} does not match this version of dmjoint ({e}); "
                         "re-run fit to rewrite it") from e
    mode, (S, J, _), M = chain.config.mode, chain.phi_shape, chain.xi_shape[1]
    included = int(np.count_nonzero(chain.mppi_zeta))
    # the means cover J taxa and the pairs some sample included; a chain that
    # selects balances keeps its predictor over M balances, N fitted values
    # per sample and the N responses they were fitted to
    width = (0,) if mode == "dm_only" else chain.fits.shape[-1:]
    for name, want in (("alpha_mean", (J,)), ("phi_mean", (included,)),
                       ("predictor", (0 if mode == "dm_only" else M + 1,)),
                       ("fits", (S, *width)), ("y", width)):
        shape = getattr(chain, name).shape
        if shape != want:
            raise ValueError(f"{rundir / (name + '.npy')} has shape {shape}, but this {mode} "
                             f"chain of {S} samples over {J} taxa and {M} balances, "
                             f"including {included} pairs, needs {want}; "
                             "re-run fit to rewrite it")
    return chain, hyper, summary

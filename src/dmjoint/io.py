"""File persistence for datasets, chains, and reports.

Datasets, selections, predictions and reports are UTF-8 CSV with a header
row; reals are written with 17 significant digits so write -> read -> write
round-trips byte-wise, counts as plain integers. A chain is seven raw
``.npy`` blocks (``alpha_mean``, ``phi_index``, ``phi_mean``, ``ridge``,
``fits``, ``xi``, ``log_posterior``) in their in-memory shape and dtype, so it
round-trips bitwise; a block the chain does not keep is written empty: the
count blocks of an xi-only (stage-2) chain and the ``xi``, ``ridge`` and
``fits`` of a two-step fit's stage 1. Every chain that selects balances, a
joint chain (schema 7) and stage 2 (schema 9), keeps each sample's ridge fit
on the balances it selected: ``ridge`` holds one row ``(beta, mean, sd)`` per
selection, so its rows are ``xi.sum()``, and ``fits`` the S x N fitted
values; a ``dm_only`` chain writes ``ridge`` as 0 x 3 and ``fits`` as S x 0.
A ``dm_only`` chain's mean composition, ``psi_mean``, is not written: stage
2's ridge fits hold all that prediction reads of it, so a two-step run no
longer writes it as ``psi_bar.csv`` (before schema 9). ``phi_index`` holds
the ascending flat indices of the non-zero entries of the S x J x P ``phi``
block whose shape ``summary.json`` records as ``phi_shape``. The count
blocks are kept as their posterior means (manifest schema 8): ``alpha_mean``
(J) and ``phi_mean``, the mean ``phi`` at the pairs with ``mppi_zeta > 0``
in C order. ``zeta`` (``phi != 0``) and the MPPIs are derived on load; a
``zeta.npy``, ``mppi_*.npy``, (before manifest schema 5) ``u.npy`` or
(before schema 9) empty ``psi.npy`` of an older writer is ignored, and a
chain without ``ridge.npy`` (before schema 7) or ``alpha_mean.npy`` (before
schema 8), or a stage 2 without ridge fits (before schema 9), must be fitted
again. Settings,
acceptance counts and provenance are JSON; a fit's ``summary.json`` also
records ``train_sha256``, a digest of the training data it read
(``train_digest``), so ``predict`` can refuse other data.
"""

from __future__ import annotations

import hashlib
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
        "schema_version": 9,
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


def train_digest(train: Dataset) -> str:
    """SHA-256 of the training ``Y``, ``Z`` and ``X`` values, shapes and dtypes."""
    h = hashlib.sha256()
    for arr in (train.Y, train.Z, train.X):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


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


_BLOCKS = ("alpha_mean", "phi_index", "phi_mean", "ridge", "fits", "xi", "log_posterior")


def write_chain(outdir, chain: ChainOutput, hyper: Hyperparams, extra: dict | None = None):
    """One ``<block>.npy`` per chain block, plus a JSON summary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in _BLOCKS:
        np.save(outdir / f"{name}.npy", getattr(chain, name))
    summary = {
        "config": asdict(chain.config),
        "hyperparams": asdict(hyper),
        "acceptance": {k: {"accepted": int(v[0]), "proposed": int(v[1]),
                           "rate": (v[0] / v[1]) if v[1] else None}
                       for k, v in chain.accept.items()},
        "n_samples": chain.n_samples,
        "phi_shape": list(chain.phi_shape),
    }
    if extra:
        summary.update(extra)
    with open(outdir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")


def read_chain(rundir) -> tuple[ChainOutput, Hyperparams, dict]:
    rundir = Path(rundir)
    missing = [name for name in _BLOCKS if not (rundir / f"{name}.npy").exists()]
    if missing:
        raise ValueError(f"{rundir} is missing the chain block {missing[0]}.npy; "
                         "re-run fit to rewrite it")
    path = rundir / "summary.json"
    with open(path) as f:
        summary = json.load(f)
    blocks = {name: np.load(rundir / f"{name}.npy", allow_pickle=False)
              for name in _BLOCKS}
    try:
        accept = {k: (v["accepted"], v["proposed"])
                  for k, v in summary["acceptance"].items()}
        chain = ChainOutput(**blocks, phi_shape=tuple(summary["phi_shape"]), accept=accept,
                            config=SamplerConfig(**summary["config"]))
        hyper = Hyperparams(**summary["hyperparams"])
    except KeyError as e:
        raise ValueError(f"{path} has no key {e}; re-run fit to rewrite it") from e
    except TypeError as e:
        raise ValueError(f"{path} does not match this version of dmjoint ({e}); "
                         "re-run fit to rewrite it") from e
    mode, (S, J, _) = chain.config.mode, chain.phi_shape
    selected, included = int(chain.xi.sum()), int(np.count_nonzero(chain.mppi_zeta))
    # the means cover J taxa and the pairs some sample included; a sample keeps
    # one (beta, mean, sd) row per selected balance, and N fitted values unless
    # its chain selects no balances (dm_only)
    n = (0,) if mode == "dm_only" else chain.fits.shape[-1:]
    for name, want in (("alpha_mean", (J,)), ("phi_mean", (included,)),
                       ("ridge", (selected, 3)), ("fits", (S, *n))):
        shape = getattr(chain, name).shape
        if shape != want:
            raise ValueError(f"{rundir / (name + '.npy')} has shape {shape}, but this {mode} "
                             f"chain of {S} samples over {J} taxa, including {included} "
                             f"pairs and selecting {selected} balances, needs {want}; "
                             "re-run fit to rewrite it")
    if mode != "dm_only" and n == (0,):  # N >= 1: a stage 2 written before schema 9
        raise ValueError(f"{rundir / 'fits.npy'} holds no fitted values, which this {mode} "
                         "chain needs; re-run fit to rewrite it")
    return chain, hyper, summary

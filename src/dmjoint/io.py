"""File persistence for datasets, fits, chains, and reports.

Datasets, selections, predictions and reports are UTF-8 CSV with a header
row; reals are written with 17 significant digits so write -> read -> write
round-trips byte-wise, counts as plain integers. Every command leaves a
``manifest.json``; a fit's records the fit's facts once (model, dataset,
hyperparameters, sampler flags and the preprocessing statistics that
``predict`` applies to a test set), and ``read_fit`` is their one reader. A
chain is one raw ``.npy`` file per block of ``sampler.ChainOutput.BLOCKS``, in
its in-memory shape and dtype, so it round-trips bitwise. The chain's
``summary.json`` holds only its own facts: the ``schema_version`` it was
written under, its sampler settings, acceptance counts and indicator shapes.
``read_chain`` refuses any other version, a block it cannot load, and, naming
the chain directory, the blocks ``ChainOutput`` refuses as not of its mode and
shapes. Each JSON record (a fit's manifest, a chain's summary, predict's
manifest) is parsed under one guard, which refuses a missing key, a value of
the wrong type or out of range, and a config record that does not hold exactly
its dataclass's fields, naming the file and asking for a re-fit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .model import Dataset, Hyperparams, require_finite
from .predict import TestSet
from .sampler import ChainOutput, SamplerConfig
from .simulate import GroundTruth

FLOAT_FMT = "%.17g"
SCHEMA_VERSION = 13  # of chains and manifests; bump on any change to a chain's files


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


def write_manifest(outdir, command: str, config: dict, started: float):
    outdir = Path(outdir)
    manifest = {
        "command": command,
        "config": config,
        "output": str(outdir),
        "duration_s": round(time.time() - started, 3),
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
    }
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


@contextmanager
def _record(path):
    """Reading and parsing the JSON record at ``path``: a missing key, and a
    value of the wrong type or out of range, become one ValueError naming it."""
    try:
        yield
    except KeyError as e:
        raise ValueError(f"{path} has no key {e}; re-run fit to rewrite it") from e
    except (TypeError, AttributeError, ValueError) as e:
        raise ValueError(f"{path} holds an invalid record ({e}); "
                         "re-run fit to rewrite it") from e


def _read_json(path) -> dict:
    with open(path) as f, _record(path):
        record = json.load(f)
        if not isinstance(record, dict):
            raise TypeError(f"a JSON {type(record).__name__}, not an object")
    return record


def read_manifest(rundir) -> dict:
    return _read_json(Path(rundir) / "manifest.json")


def _config(cls, record: dict, **fixed):
    """``cls(**record, **fixed)`` for a record of exactly ``cls``'s fields but
    ``fixed``'s: a missing one is a KeyError, and an unknown one a TypeError."""
    missing = [f.name for f in fields(cls) if f.name not in record and f.name not in fixed]
    if missing:
        raise KeyError(missing[0])
    return cls(**record, **fixed)


def read_fit(rundir) -> dict:
    """The facts ``fit`` recorded in ``rundir``'s manifest: ``model``,
    ``dataset`` (a Path), ``hyperparams`` (a ``Hyperparams``), the ``sampler``
    flags (every ``SamplerConfig`` field but the mode, which each chain's
    summary records; checked with the default mode) and the ``preprocess``
    statistics, ``x_mean`` and ``x_sd`` as float arrays."""
    path, manifest = Path(rundir) / "manifest.json", read_manifest(rundir)
    if manifest.get("command") != "fit":
        raise ValueError(f"{path} is the manifest of a {manifest.get('command')!r} run, "
                         "not of a fit; pass a directory written by fit")
    with _record(path):
        config = manifest["config"]
        sampler = asdict(_config(SamplerConfig, config["sampler"], mode=SamplerConfig.mode))
        del sampler["mode"]
        prep = config["preprocess"]
        return {"model": config["model"], "dataset": Path(config["dataset"]),
                "hyperparams": _config(Hyperparams, config["hyperparams"]), "sampler": sampler,
                "preprocess": {"y_mean": float(prep["y_mean"]),
                               **{k: require_finite(np.asarray(prep[k], dtype=float), k)
                                  for k in ("x_mean", "x_sd")}}}


def read_test_dir(preddir) -> Path:
    """The test directory ``predict`` recorded in ``preddir``'s manifest."""
    manifest = read_manifest(preddir)
    with _record(Path(preddir) / "manifest.json"):
        return Path(manifest["config"]["test_dir"])


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


def write_chain(outdir, chain: ChainOutput):
    """One ``<block>.npy`` per chain block, plus a JSON summary of the chain's
    own facts."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in chain.BLOCKS:
        np.save(outdir / f"{name}.npy", getattr(chain, name))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(chain.config),
        "acceptance": {k: {"accepted": int(v[0]), "proposed": int(v[1]),
                           "rate": (v[0] / v[1]) if v[1] else None}
                       for k, v in chain.accept.items()},
        "phi_shape": list(chain.phi_shape),
        "xi_shape": list(chain.xi_shape),
    }
    with open(outdir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")


def read_chain(rundir) -> tuple[ChainOutput, dict]:
    rundir = Path(rundir)
    path = rundir / "summary.json"
    summary = _read_json(path)
    version = summary.get("schema_version", "10 or older (no key 'schema_version')")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path} is of chain schema {version}, but this version of dmjoint "
                         f"reads schema {SCHEMA_VERSION}; re-run fit to rewrite it")
    with _record(path):
        accept = {k: (v["accepted"], v["proposed"])
                  for k, v in summary["acceptance"].items()}
        shapes = {k: tuple(summary[k]) for k in ("phi_shape", "xi_shape")}
        config = _config(SamplerConfig, summary["config"])
    blocks = {}
    try:
        for name in ChainOutput.BLOCKS:
            try:
                blocks[name] = np.load(rundir / f"{name}.npy", allow_pickle=False)
            except (OSError, EOFError, ValueError) as e:  # an empty file is an EOFError
                raise ValueError(f"the block {name} cannot be loaded ({e})") from e
        chain = ChainOutput(**blocks, **shapes, accept=accept, config=config)
    except ValueError as e:
        raise ValueError(f"{rundir} holds a malformed chain: {e}; "
                         "re-run fit to rewrite it") from e
    return chain, summary

"""dmjoint benchmark: wall time of the CLI user path on one simulated replicate.

Run from the repository root:

    python3 perfbench/run.py --workload chain_io --seed 1 --seconds 60 --trace 0

Each run simulates one paper-scale replicate (``SimConfig()`` defaults) from
``--seed`` and then repeats, until ``--seconds`` are used up, a cycle of
``dmjoint fit`` -> ``predict`` -> ``evaluate`` driven in-process through
``dmjoint.cli.main`` with ``--jobs 1``. Every command is one operation and its
outputs are checked. The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics, taken from cycles traced by ``tracer.py``. A traced
run alternates untraced and traced cycles, so it also reports the tracing
overhead. The full record (environment, every sample, reproducibility digest
and, when traced, all spans) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Both workloads fit one replicate with the paper's 20 between-model moves per
# iteration; run lengths are cut so that a cycle fits more than once in a run.
WORKLOADS = {
    # Two-step comparator: stage 1 runs the count blocks only, stage 2 the xi
    # block alone on frozen balances in a second loop. The sampler is most of
    # fit_s.
    "two_step_fit": {"model": "dmlm-bayes", "iterations": 500, "burn_in": 250, "thin": 10},
    # Joint fit keeping S = 1000 samples, the paper's count, at thin 1: chain
    # CSV write and read and the per-sample prediction loops dominate.
    "chain_io": {"model": "joint", "iterations": 1050, "burn_in": 50, "thin": 1},
}
BETWEEN_MOVES = 20
WARMUP = {"iterations": 20, "burn_in": 10, "thin": 1}
SETUP_ROUNDS = 3
# Floors against gross breakage that the evaluate report must meet on every
# seed. Most replicates give a share near 0.1 and an MCC near 1, but a
# replicate whose true balances involve very rare taxa is not predictable
# from counts (seed 210 gives a share near 1.0 and an MCC near 0.6).
PMSE_MAX_SHARE = 1.5  # of the training-mean predictor's pmse_sum
BAL_MCC_MIN = 0.3  # balance median model against the true balances
DIGEST_FILES = ("selected_zeta.csv", "selected_xi.csv", "fitted_y.csv",
                "predictions/predictions.csv")
MB = 1e6

SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dmjoint.cli import main
rc = main(["simulate", "--out", sys.argv[2], "--seed", sys.argv[3]])
print(time.perf_counter() - t)
sys.exit(rc)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args, import_s):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "settings": WORKLOADS[args.workload],
        "between_moves_per_iter": BETWEEN_MOVES,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "platform": platform.platform(), "import_s": import_s,
    }


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("dmjoint/*.py"), *ROOT.glob("perfbench/*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def dir_bytes(path: Path) -> int:
    """Bytes of every file under path except manifests, which hold durations."""
    return sum(p.stat().st_size for p in path.rglob("*")
               if p.is_file() and p.name != "manifest.json")


def digest(fit_dir: Path) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update(name.encode())
        h.update((fit_dir / name).read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, args, cli, dio, tracer_mod):
        self.args = args
        self.cli = cli
        self.dio = dio
        self.tracer_mod = tracer_mod
        self.tracer = tracer_mod.Tracer() if args.trace else None
        self.settings = WORKLOADS[args.workload]
        self.work = Path(".bench_work") / f"{args.workload}-seed{args.seed}"
        self.rep = self.work / "data" / "rep000"
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (operation, message)
        self.setup_s = []
        self.cycles = []
        self.setup_layers = {}

    # -- operations ----------------------------------------------------------

    def operation(self, name: str, problems: list):
        """Count one operation; it fails if any of its checks reported a problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [(name, p) for p in problems]
        return not problems

    def cli_call(self, argv):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main([str(a) for a in argv])
        return rc, time.perf_counter() - start

    def fit_argv(self, out: Path, settings: dict):
        return ["fit", self.rep, "--out", out, "--model", self.settings["model"],
                "--iterations", settings["iterations"], "--burn-in", settings["burn_in"],
                "--thin", settings["thin"], "--between-moves-per-iter", BETWEEN_MOVES,
                "--seed", self.args.seed, "--jobs", 1]

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """Simulate the replicate in fresh interpreters (timed) and in-process."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for k in range(SETUP_ROUNDS):
            out = self.work / f"setup{k}"
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), str(out), str(self.args.seed)],
                capture_output=True, text=True, timeout=120)
            problems = [] if proc.returncode == 0 else [
                f"simulate exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            if not problems:
                self.setup_s.append(float(proc.stdout.strip().splitlines()[-1]))
            self.operation("simulate", problems)
        if self.tracer:
            self.tracer.op = "setup"
        with self.tracer.patch() if self.tracer else contextlib.nullcontext():
            rc, _ = self.cli_call(["simulate", "--out", self.work / "data",
                                   "--seed", self.args.seed])
        problems = [] if rc == 0 else [f"simulate exited {rc}"]
        if rc == 0:
            for k in range(SETUP_ROUNDS):
                other = self.work / f"setup{k}" / "rep000"
                for f in sorted(self.rep.iterdir()):
                    if f.read_bytes() != (other / f.name).read_bytes():
                        problems.append(f"replicate file {f.name} differs between simulations")
        if self.tracer:
            self.setup_layers = {
                "simulate.gen_replicate.s": (self.tracer.total_s("simulate.gen_replicate"), "s"),
                "io.write_replicate.s": (self.tracer.total_s("io.write_replicate"), "s"),
            }
            self.tracer.reset()
        return self.operation("simulate", problems)

    def warmup(self):
        """A short fit and predict so that lazy set-up is done before timing."""
        out = self.work / "warmup"
        rc, _ = self.cli_call(self.fit_argv(out, WARMUP))
        ok = self.operation("fit", [] if rc == 0 else [f"warm-up fit exited {rc}"])
        if ok:
            rc, _ = self.cli_call(["predict", out])
            ok = self.operation("predict", [] if rc == 0 else [f"warm-up predict exited {rc}"])
        shutil.rmtree(out, ignore_errors=True)
        return ok

    # -- one measured cycle --------------------------------------------------

    def cycle(self, traced: bool) -> bool:
        """fit, predict and evaluate, then the checks of all three."""
        fit_dir = self.work / "fit"
        eval_dir = self.work / "evaluate"
        shutil.rmtree(fit_dir, ignore_errors=True)
        shutil.rmtree(eval_dir, ignore_errors=True)
        record = {"traced": traced}
        self.cycles.append(record)
        chains = []
        if traced:
            self.tracer.reset()
            self.tracer.op = len(self.cycles) - 1
        cpu = time.process_time()
        with contextlib.ExitStack() as stack:
            stack.enter_context(self.tracer_mod.capture_read_chain(chains))
            if traced:
                stack.enter_context(self.tracer.patch())
            rc_fit, record["fit_s"] = self.cli_call(self.fit_argv(fit_dir, self.settings))
            if rc_fit == 0:
                record["chain_bytes"] = dir_bytes(fit_dir)
                rc_pred, record["predict_s"] = self.cli_call(["predict", fit_dir])
                rc_eval, record["evaluate_s"] = self.cli_call(
                    ["evaluate", fit_dir, "--out", eval_dir])
        record["cpu_s"] = time.process_time() - cpu
        if rc_fit != 0:
            return self.operation("fit", [f"fit exited {rc_fit}"])

        fit_problems = self.check_fit(fit_dir, chains) if rc_pred == 0 else []
        chains.clear()
        pred_problems = self.check_predict(fit_dir) if rc_pred == 0 else [
            f"predict exited {rc_pred}"]
        eval_problems = self.check_evaluate(eval_dir) if rc_eval == 0 else [
            f"evaluate exited {rc_eval}"]
        if rc_pred == 0:
            record["digest"] = digest(fit_dir)
            fit_problems += self.check_digest(record["digest"])
        if traced:
            layers = self.tracer.layer_metrics()
            wall = record["fit_s"] + record["predict_s"] + record["evaluate_s"]
            layers["process.cpu_s"] = (record["cpu_s"], "s")
            layers["process.cpu_per_wall"] = (record["cpu_s"] / wall, "ratio")
            record["layers"] = {k: v for k, (v, _) in layers.items()}
            record["units"] = {k: u for k, (_, u) in layers.items()}
            record["kernels"] = self.tracer.kernel_table()
        results = [self.operation("fit", fit_problems),
                   self.operation("predict", pred_problems),
                   self.operation("evaluate", eval_problems)]
        return all(results)

    # -- output checks -------------------------------------------------------

    def check_fit(self, fit_dir: Path, chains) -> list:
        """Chains as predict read them back, and the selections fit wrote."""
        from dmjoint.metrics import median_model
        import numpy as np

        problems = []
        expected = 2 if self.settings["model"] == "dmlm-bayes" else 1
        if len(chains) != expected:
            return [f"predict read {len(chains)} chains, expected {expected}"]
        for k, chain in enumerate(chains):
            lp = chain.log_posterior
            if lp.shape != (self.settings["iterations"],) or not np.all(np.isfinite(lp)):
                problems.append(f"chain {k}: log_posterior not finite or of wrong length")
            if not np.array_equal(chain.mppi_xi, chain.xi.mean(axis=0)):
                problems.append(f"chain {k}: mppi_xi is not the mean of xi")
            if chain.zeta.size and not np.array_equal(chain.mppi_zeta,
                                                      chain.zeta.mean(axis=0)):
                problems.append(f"chain {k}: mppi_zeta is not the mean of zeta")
            if chain.psi.size and not np.allclose(chain.psi.sum(axis=2), 1.0,
                                                  rtol=0, atol=1e-12):
                problems.append(f"chain {k}: retained psi rows do not sum to 1")
        read = self.dio.read_matrix
        if not np.array_equal(read(fit_dir / "selected_zeta.csv", integer=True),
                              median_model(chains[0].mppi_zeta)):
            problems.append("selected_zeta.csv is not the median model of mppi_zeta")
        if not np.array_equal(read(fit_dir / "selected_xi.csv", integer=True).ravel(),
                              median_model(chains[-1].mppi_xi)):
            problems.append("selected_xi.csv is not the median model of mppi_xi")
        if not np.all(np.isfinite(read(fit_dir / "fitted_y.csv"))):
            problems.append("fitted_y.csv is not finite")
        return problems

    def check_predict(self, fit_dir: Path) -> list:
        import numpy as np

        problems = []
        pred = self.dio.read_matrix(fit_dir / "predictions" / "predictions.csv")
        n_test = self.dio.read_matrix(self.rep / "test_y.csv").shape[0]
        if pred.shape != (n_test, 1) or not np.all(np.isfinite(pred)):
            problems.append("predictions are not finite or of wrong shape")
        loglik = fit_dir / "predictions" / "loglik.csv"
        if loglik.exists() and not np.all(np.isfinite(self.dio.read_matrix(loglik))):
            problems.append("pointwise log-likelihood is not finite")
        return problems

    def check_evaluate(self, eval_dir: Path) -> list:
        with open(eval_dir / "report.csv") as f:
            row = next(csv.DictReader(f))
        y_test = self.dio.read_matrix(self.rep / "test_y.csv").ravel()
        y_train = self.dio.read_matrix(self.rep / "train_y.csv").ravel()
        null_pmse = float(((y_test - y_train.mean()) ** 2).sum())
        if not row["pmse_sum"]:
            return ["report has no pmse_sum"]
        problems = []
        if not float(row["pmse_sum"]) < PMSE_MAX_SHARE * null_pmse:
            problems.append(f"pmse_sum {row['pmse_sum']} not below {PMSE_MAX_SHARE} "
                            f"x training-mean predictor's {null_pmse:.6g}")
        if not float(row["bal_mcc"]) >= BAL_MCC_MIN:
            problems.append(f"balance MCC {row['bal_mcc']} below {BAL_MCC_MIN}")
        return problems

    def check_digest(self, value: str) -> list:
        """Every cycle, and every earlier run of this code and seed, must agree."""
        first = self.cycles[0].get("digest")
        if first is not None and first != value:
            return ["outputs differ between cycles of one run"]
        store = Path(".bench_out") / "digests.json"
        # BLAS reduction order, hence the last bits, depends on its thread count.
        key = (f"{self.args.workload}/seed{self.args.seed}/code-{code_hash()}"
               f"/blas{blas_threads()}")
        known = json.loads(store.read_text()) if store.exists() else {}
        if known.setdefault(key, value) != value:
            return [f"outputs differ from an earlier run of the same code and seed ({key})"]
        store.parent.mkdir(exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)
        return []

    # -- measurement ---------------------------------------------------------

    def measure(self, seconds: float):
        """Cycles until the next one would end after the deadline.

        Traced runs alternate untraced and traced cycles, at least one of each.
        """
        start = time.perf_counter()
        minimum = 2 if self.tracer else 1
        while True:
            traced = bool(self.tracer) and len(self.cycles) % 2 == 1
            if not self.cycle(traced):
                break
            elapsed = time.perf_counter() - start
            typical = statistics.median(
                c["fit_s"] + c["predict_s"] + c["evaluate_s"] for c in self.cycles)
            if len(self.cycles) >= minimum and elapsed + typical > seconds:
                break

    def metrics(self) -> dict:
        done = [c for c in self.cycles if "evaluate_s" in c]
        if self.args.trace == 0:
            m = {
                "fit_s": (statistics.median(c["fit_s"] for c in done), "s"),
                "predict_s": (statistics.median(c["predict_s"] for c in done), "s"),
                "setup_s": (statistics.median(self.setup_s), "s"),
                "chain_mb": (statistics.median(c["chain_bytes"] for c in done) / MB, "MB"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
                                "MB"),
            }
        else:
            traced = [c for c in done if c["traced"]]
            plain = [c for c in done if not c["traced"]]
            m = {k: (statistics.median(c["layers"][k] for c in traced), u)
                 for k, u in traced[0]["units"].items()}
            m.update(self.setup_layers)
            m["trace.fit_overhead"] = (
                statistics.median(c["fit_s"] for c in traced)
                / statistics.median(c["fit_s"] for c in plain), "ratio")
        return m


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "dmjoint" / "__init__.py").is_file():
        print(f"error: dmjoint sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from dmjoint import cli
    from dmjoint import io as dio

    import tracer as tracer_mod

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: dmjoint imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args, cli, dio, tracer_mod)
    try:
        if bench.setup() and bench.warmup():
            bench.measure(args.seconds)
    except Exception:
        traceback.print_exc()
        bench.operation("cycle", ["unexpected exception (traceback on stderr)"])
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    done = [c for c in bench.cycles if "evaluate_s" in c]
    enough = done and bench.setup_s and (not args.trace or (
        any(c["traced"] for c in done) and any(not c["traced"] for c in done)))
    measured = bench.metrics() if enough else {}
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
               for m in wanted if m["name"] in measured}
    if len(metrics) != len(wanted):
        bench.operation("report", ["metrics missing from the measurement"])

    record = {
        "environment": environment(args, import_s),
        "code": code_hash(),
        "setup_s": bench.setup_s,
        "cycles": bench.cycles,
        "failures": bench.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }
    if bench.tracer:
        record["spans"] = bench.tracer.spans
    out = Path(".bench_out") / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, problem in bench.failures:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    for name, (value, unit) in measured.items():
        gated = "" if name in metrics else "  (recorded, not in BENCHMARK.json)"
        print(f"{name:45s} {value:.6g} {unit}{gated}")
    print(f"record: {out}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

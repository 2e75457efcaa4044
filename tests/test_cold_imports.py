"""Only the sampler loads scipy: simulate, predict and evaluate run on numpy alone.

Each command runs in one fresh interpreter, so the modules it imports are the
ones a user's ``dmjoint`` command pays for.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special

import dmjoint
from dmjoint import model, sampler
from dmjoint.cli import main

SRC = Path(dmjoint.__file__).resolve().parents[1]
SMALL = ["--n", "12", "--p", "3", "--j", "5", "--n-true-cov", "2", "--n-true-bal", "1"]
FIT = ["--iterations", "40", "--burn-in", "20", "--thin", "2", "--seed", "3"]

COLD = """
import sys
from dmjoint.cli import main

rep, fit, out = sys.argv[1:4]
small, fit_flags = sys.argv[4].split(), sys.argv[5].split()
for argv in (["simulate", "--out", out + "/sim", *small],
             ["predict", fit, "--out", out + "/pred"],
             ["evaluate", fit, "--out", out + "/eval"],
             ["fit", rep, "--out", out + "/fit", *fit_flags]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    print(argv[0], "scipy" in sys.modules, file=sys.stderr)
"""


def test_only_fit_imports_scipy(tmp_path):
    rep, fit = tmp_path / "data" / "rep000", tmp_path / "run"
    assert main(["simulate", "--out", str(tmp_path / "data"), "--seed", "2", *SMALL]) == 0
    assert main(["fit", str(rep), "--out", str(fit), *FIT]) == 0
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", COLD, str(rep), str(fit), str(tmp_path / "cold"),
         " ".join(SMALL), " ".join(FIT)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split() for line in proc.stderr.splitlines()
                  if line.split()[-1:] in (["True"], ["False"]))
    # the fit line shows the check can see scipy once something imports it
    assert loaded == {"simulate": "False", "predict": "False", "evaluate": "False",
                      "fit": "True"}, proc.stderr


def test_sampler_gammaln_is_scipys_bitwise():
    x = np.array([1e-300, 1e-8, 0.5, 1.0, 2.5, 171.6, 1e5, 1e300, 2.5e305, 1e307,
                  1.7e308, np.inf, 0.0, -0.5, -2.0, np.nan])
    got = sampler.gammaln(x)
    assert got.tobytes() == scipy.special.gammaln(x).tobytes()
    assert np.isposinf(got[x >= 1e307]).all()  # overflow-sized inputs
    assert sampler.gammaln is model.gammaln
    assert sampler.gammaln(3.5) == scipy.special.gammaln(3.5)
    for included in (0, 1):
        a, b = 1.0, 9.0
        want = scipy.special.betaln(included + a, 1 - included + b) - scipy.special.betaln(a, b)
        assert model.beta_binomial_logprior(included, a, b) == float(want)

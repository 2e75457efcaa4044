"""Only the sampler loads scipy, and then only the extension that holds gammaln
and betaln: simulate, predict and evaluate run on numpy alone.

Each check runs in one fresh interpreter, so the modules it sees loaded are
the ones a user's ``dmjoint`` command pays for, whatever earlier tests imported.
"""

import importlib.machinery
import importlib.util
import json
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
SCIPY = Path(importlib.util.find_spec("scipy").origin).resolve().parent
UFUNCS = "scipy.special._special_ufuncs"
SMALL = ["--n", "12", "--p", "3", "--j", "5", "--n-true-cov", "2", "--n-true-bal", "1"]
FIT = ["--iterations", "40", "--burn-in", "20", "--thin", "2", "--seed", "3"]

COLD = """
import json, sys
from dmjoint.cli import main

rep, fit, out, scipy_root = sys.argv[1:5]
small, fit_flags = sys.argv[5].split(), sys.argv[6].split()


def loaded():
    with open("/proc/self/maps") as f:
        mapped = {ln.split()[-1] for ln in f if ln.split()[-1].startswith(scipy_root)}
    return {"modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            "mapped": sorted(mapped)}


seen = {}
for argv in (["simulate", "--out", out + "/sim", *small],
             ["predict", fit, "--out", out + "/pred"],
             ["evaluate", fit, "--out", out + "/eval"],
             ["fit", rep, "--out", out + "/fit", *fit_flags]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    seen[argv[0]] = loaded()
print(json.dumps(seen))
"""

SAME_UFUNCS = """
import sys
import numpy as np
from dmjoint import model

edges = np.array([1e-300, 1e-8, 0.5, 1.0, 2.5, 171.6, 1e5, 1e300, 1.7e308, np.inf,
                  0.0, -0.5, -2.0, np.nan])
a, b = np.meshgrid(edges, edges)
lgam = model.gammaln(edges).tobytes()
ufuncs = sys.modules["scipy.special._special_ufuncs"]
lbeta = ufuncs.betaln(a, b).tobytes()
prior = [model.beta_binomial_logprior(k, 1.0, 9.0) for k in (0, 1)]
assert "scipy.special" not in sys.modules

import scipy.special

assert scipy.special.gammaln is ufuncs.gammaln and scipy.special.betaln is ufuncs.betaln
assert scipy.special.gammaln(edges).tobytes() == lgam
assert scipy.special.betaln(a, b).tobytes() == lbeta
assert prior == [float(scipy.special.betaln(k + 1.0, 1 - k + 9.0) - scipy.special.betaln(1.0, 9.0))
                 for k in (0, 1)]
"""


def run_fresh(code, *args):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_fit_imports_scipy(tmp_path):
    rep, fit = tmp_path / "data" / "rep000", tmp_path / "run"
    assert main(["simulate", "--out", str(tmp_path / "data"), "--seed", "2", *SMALL]) == 0
    assert main(["fit", str(rep), "--out", str(fit), *FIT]) == 0
    out = run_fresh(COLD, str(rep), str(fit), str(tmp_path / "cold"), str(SCIPY),
                    " ".join(SMALL), " ".join(FIT))
    seen = json.loads(out.splitlines()[-1])  # after the commands' own output
    for command in ("simulate", "predict", "evaluate"):
        assert seen[command] == {"modules": [], "mapped": []}, command
    # the fit maps the extension itself, so the maps check sees scipy's files once loaded
    assert seen["fit"]["modules"] == [UFUNCS]
    assert [Path(f).parent for f in seen["fit"]["mapped"]] == [SCIPY / "special"]
    assert Path(seen["fit"]["mapped"][0]).name.startswith("_special_ufuncs.")
    assert not [f for f in seen["fit"]["mapped"] if "openblas" in f]


def test_scipy_special_reuses_the_sampler_ufuncs():
    run_fresh(SAME_UFUNCS)


def test_fit_without_the_extension_exits_1(tmp_path, monkeypatch, capsys):
    assert main(["simulate", "--out", str(tmp_path / "data"), "--seed", "2", *SMALL]) == 0
    elsewhere = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    elsewhere.submodule_search_locations = [str(tmp_path / "scipy")]
    find_spec = importlib.util.find_spec

    def scipy_elsewhere(name, *rest):
        return elsewhere if name == "scipy" else find_spec(name, *rest)

    monkeypatch.setattr(importlib.util, "find_spec", scipy_elsewhere)
    monkeypatch.delitem(sys.modules, UFUNCS, raising=False)
    capsys.readouterr()
    assert main(["fit", str(tmp_path / "data" / "rep000"), "--out", str(tmp_path / "run"),
                 *FIT]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert str(tmp_path / "scipy" / "special") in err[0]


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

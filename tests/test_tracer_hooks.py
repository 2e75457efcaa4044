"""The benchmark tracer wraps module attributes by name; they must all exist.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``CATALOGUE`` while it traces a run, so a rename in the package would break
the traced benchmark without failing any other test.
"""

import importlib.util
from pathlib import Path

import pytest

from dmjoint import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_catalogue_attributes_exist():
    tracer = load_tracer()
    assert tracer.CATALOGUE
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracer.CATALOGUE
               if not hasattr(module, attr)]
    assert not missing, f"tracer patches names the package lacks: {missing}"


@pytest.mark.parametrize("model, predict_calls", [("joint", 3), ("dmlm-bayes", 2)])
def test_traced_cli_counts_every_fitted_sample(tmp_path, model, predict_calls):
    # the tracer reads n_samples, xi and stage2 from the arguments of the
    # prediction calls it wraps: fitted_y, predict_y and pointwise_loglik for a
    # joint fit, the two two-step functions otherwise
    tracer = load_tracer().Tracer()
    data, fit = tmp_path / "data", tmp_path / "fit"
    with tracer.patch():
        assert cli.main(["simulate", "--out", str(data), "--seed", "2", "--n", "12",
                         "--p", "3", "--j", "5", "--n-true-bal", "2"]) == 0
        assert cli.main(["fit", str(data / "rep000"), "--out", str(fit), "--model", model,
                         "--iterations", "40", "--burn-in", "20", "--thin", "2",
                         "--seed", "3"]) == 0
        assert cli.main(["predict", str(fit)]) == 0
    samples = (40 - 20) // 2
    assert tracer.layer_metrics()["predict.samples_fitted"] == (predict_calls * samples,
                                                                "count")
    assert tracer.calls("cli.predict") == 1

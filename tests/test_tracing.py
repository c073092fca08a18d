"""The benchmark's span tracer must still patch and restore the package.

``perfbench/tracing.py`` wraps methods and module functions by reading
``vars(owner)[attr]``, so moving a traced method off its class (into a base
class, say) breaks every traced benchmark run.  This test loads the tracer
by path and checks that it installs on, and restores, the current code.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest
import scipy.optimize

import ufcast.compose
import ufcast.core
import ufcast.forecasters
import ufcast.m4.reports
import ufcast.m4.runner
import ufcast.regress
import ufcast.select
import ufcast.transforms

from tests.conftest import seasonal_series

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    """Every attribute the tracer may touch, keyed by (owner, name)."""
    owners = [scipy.optimize]
    for module in (ufcast.core, ufcast.transforms, ufcast.compose,
                   ufcast.regress, ufcast.select, ufcast.forecasters,
                   ufcast.m4.runner, ufcast.m4.reports):
        owners.append(module)
        owners += [obj for obj in vars(module).values() if inspect.isclass(obj)]
    return {(owner, name): value for owner in owners
            for name, value in list(vars(owner).items())}


def test_tracer_installs_and_restores_every_attribute():
    tracer_class = _load_tracing().Tracer
    before = _attributes()
    with tracer_class():
        during = _attributes()
    after = _attributes()
    assert during.keys() == before.keys()
    patched = {key for key in before if during[key] is not before[key]}
    assert all(during[key].__wrapped__ is before[key] for key in patched)
    for owner, name in [(ufcast.core.BaseForecaster, "fit"),
                        (ufcast.transforms.BaseTransformer, "transform"),
                        (ufcast.regress.LinearRegressor, "fit"),
                        (ufcast.regress.KNNRegressor, "predict"),
                        (ufcast.compose, "tabularize"),
                        (ufcast.m4.runner, "build_model"),
                        (scipy.optimize, "minimize"),
                        (scipy.optimize, "minimize_scalar")]:
        assert (owner, name) in patched, (owner, name)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("attr, estimator", [
    ("minimize", ufcast.forecasters.SESForecaster),
    ("minimize_scalar", ufcast.transforms.BoxCoxTransformer),
])
def test_tracer_counts_every_optimiser_evaluation(attr, estimator,
                                                  monkeypatch):
    """The optimiser spans' ``nfev`` (``forecasters.optimize.nfev`` and
    ``transforms.boxcox.nfev``) is the result's, which is the number of
    objective evaluations."""
    tracing = _load_tracing()
    original = getattr(scipy.optimize, attr)
    results = []

    def recording(fun, *args, **kwargs):
        evals = []

        def counted(*a):
            evals.append(a)
            return fun(*a)

        res = original(counted, *args, **kwargs)
        results.append((res, len(evals)))
        return res

    monkeypatch.setattr(scipy.optimize, attr, recording)
    y = seasonal_series(n=48, sp=1, amp=0.0, noise=0.05, seed=7)
    with tracing.Tracer() as tracer:
        estimator().fit(y)
    spans = [s for s in tracer.spans if s[tracing.NAME] == f"scipy.{attr}"]
    assert len(spans) == len(results) == 1
    (res, evals), = results
    nfev, nit, success = spans[0][tracing.DETAIL]
    assert nfev == res.nfev == evals > 0
    assert nit == res.nit > 0 and success is True

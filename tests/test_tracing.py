"""The benchmark's span tracer must still patch and restore the package.

``perfbench/tracing.py`` wraps methods and module functions by reading
``vars(owner)[attr]``, so moving a traced method off its class (into a base
class, say) breaks every traced benchmark run.  This test loads the tracer
by path and checks that it installs on, and restores, the current code.
"""

import importlib.util
import inspect
from pathlib import Path

import scipy.optimize

import ufcast.compose
import ufcast.core
import ufcast.forecasters
import ufcast.m4.reports
import ufcast.m4.runner
import ufcast.regress
import ufcast.select
import ufcast.transforms

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
                        (scipy.optimize, "minimize")]:
        assert (owner, name) in patched, (owner, name)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

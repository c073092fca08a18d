"""Span tracing of ufcast's public call sites, installed from outside.

``Tracer`` replaces a fixed list of public attributes (forecaster and
transformer methods, regressor methods, module-level functions that the
layers call through their module globals, and scipy's optimisers) with
wrappers that record one span per call: a name, the concrete class, start
and end on ``time.perf_counter``, the id of the enclosing span, and a small
per-call detail (fit identity, row count, optimiser counts).  Spans stay in
memory; ``metrics.layer_metrics`` turns them into per-layer numbers.

Nothing inside the package changes: ``install`` stores the original
attributes and ``restore`` puts every one back.  Use the tracer as a
context manager so restoring happens in ``finally``.
"""

from __future__ import annotations

import functools
import hashlib
import time

import numpy as np
import scipy.optimize

import ufcast.compose
import ufcast.core
import ufcast.m4.reports
import ufcast.m4.runner
import ufcast.regress
import ufcast.transforms

# span record layout (lists, not objects, to keep the wrapper cheap)
ID, PARENT, NAME, LABEL, START, END, DETAIL = range(7)

_FORECASTER_METHODS = ("fit", "predict", "update", "update_predict")
_TRANSFORMER_METHODS = ("fit", "transform", "transform_at", "inverse_at")
_REGRESSORS = {"lr": ufcast.regress.LinearRegressor,
               "knn": ufcast.regress.KNNRegressor}
_RUNNER_GLOBALS = ("load_m4", "build_model", "smape", "mase", "dumps_17g",
                   "rank_models", "mean_ranks", "owa")
_REPORT_TESTS = ("friedman_test", "critical_difference_report",
                 "wilcoxon_signed_rank", "holm_adjust", "paired_t_test")
_REPORT_RANKS = ("rank_models", "mean_ranks")
_KEYED_MODULES = ("ufcast.forecasters", "ufcast.transforms")


def _subclasses(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _input_digest(y) -> bytes:
    values = getattr(y, "values", y)
    start = getattr(y, "start_index", 0)
    h = hashlib.blake2b(np.ascontiguousarray(values, dtype=float).tobytes(),
                        digest_size=16)
    h.update(str(start).encode())
    return h.digest()


def _fit_identity(self, y, *args, **kwargs):
    """(class, params, input) key of a fit call, for the unique-fit ratios.

    Only the forecasters and transforms layers need it; composite
    forecasters get no key, which keeps their (deep) parameter walk out of
    the traced time.
    """
    if type(self).__module__ not in _KEYED_MODULES:
        return None
    params = sorted((k, repr(v)) for k, v in self.get_params(deep=True).items())
    return (type(self).__name__, repr(params), _input_digest(y))


def _rows(self, X, *args, **kwargs):
    return int(np.shape(X)[0]) if np.ndim(X) == 2 else 1


def _optimizer_counts(result):
    return (int(getattr(result, "nfev", 0) or 0),
            int(getattr(result, "nit", 0) or 0),
            bool(getattr(result, "success", True)))


class Tracer:
    """Records spans around ufcast's public call sites while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (for the caller's own
        calls into the package, such as the report phase)."""
        return self._traced(fn, name, None, None, False)(*args, **kwargs)

    def _traced(self, original, name, before, after, method, outermost=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if outermost and stack and spans[stack[-1]][NAME] == name:
                return original(*args, **kwargs)
            label = type(args[0]).__name__ if method else ""
            detail = before(*args, **kwargs) if before is not None else None
            rec = [len(spans), stack[-1] if stack else -1, name, label,
                   0.0, 0.0, detail]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[DETAIL] = after(result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, name, before=None, after=None,
               method=False, outermost=False):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._traced(original, name, before, after,
                                          method, outermost))

    def _patch_methods(self, base, methods, layer, fit_key=None):
        for cls in _subclasses(base):
            for attr in methods:
                if attr in vars(cls):
                    before = fit_key if attr == "fit" else None
                    self._patch(cls, attr, f"{layer}.{attr}", before=before,
                                method=True)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._patch_methods(ufcast.core.BaseForecaster,
                                _FORECASTER_METHODS, "core", _fit_identity)
            self._patch_methods(ufcast.transforms.BaseTransformer,
                                _TRANSFORMER_METHODS, "transforms",
                                _fit_identity)
            for short, cls in _REGRESSORS.items():
                self._patch(cls, "fit", f"regress.{short}.fit", method=True)
                self._patch(cls, "predict", f"regress.{short}.predict",
                            before=_rows, method=True)
            self._patch(ufcast.transforms, "seasonality_test",
                        "transforms.seasonality_test", after=bool)
            self._patch(ufcast.transforms, "classical_decompose",
                        "transforms.decompose")
            self._patch(ufcast.compose, "tabularize", "compose.tabularize")
            for attr in _RUNNER_GLOBALS:
                self._patch(ufcast.m4.runner, attr, f"m4.runner.{attr}",
                            after=len if attr == "load_m4" else None,
                            outermost=attr == "dumps_17g")
            for attr in _REPORT_TESTS:
                self._patch(ufcast.m4.reports, attr, f"evaluation.{attr}")
            for attr in _REPORT_RANKS:
                self._patch(ufcast.m4.reports, attr, f"m4.reports.{attr}")
            self._patch(scipy.optimize, "minimize", "scipy.minimize",
                        after=_optimizer_counts)
            self._patch(scipy.optimize, "minimize_scalar",
                        "scipy.minimize_scalar", after=_optimizer_counts)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children
    (children of one span never overlap: they run on the same thread)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out

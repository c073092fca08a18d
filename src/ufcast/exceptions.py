"""Exception types shared across the package.

Every error raised on a documented failure path derives from
:class:`UfcastError` so callers can catch the whole family at once
(the benchmark runner does exactly that to isolate per-series failures).
"""

__all__ = [
    "FIT_ERRORS",
    "UfcastError",
    "SeriesTooShortError",
    "NonFiniteInputError",
    "NotFittedError",
    "UnsupportedInSampleError",
    "NonContiguousUpdateError",
    "UnknownParameterError",
    "OptimizerFailedError",
    "NonPositiveValuesError",
    "DimensionMismatchError",
    "KTooLargeError",
    "AllCandidatesFailedError",
    "LengthMismatchError",
    "ZeroDenominatorError",
    "SeriesMismatchError",
    "ZeroVarianceError",
    "DegenerateInputError",
    "UnsupportedAlphaError",
    "AllZeroDifferencesError",
    "IncompleteGridError",
    "UnknownModelError",
    "MalformedRowError",
    "MissingTestSeriesError",
    "MissingReferenceError",
]


class UfcastError(Exception):
    """Base class for all package errors."""


class SeriesTooShortError(UfcastError):
    """Input series is shorter than the estimator's declared minimum."""

    def __init__(self, needed, got, what="series"):
        self.needed = needed
        self.got = got
        super().__init__(f"{what} needs at least {needed} observations, got {got}")


class NonFiniteInputError(UfcastError):
    """Input contains NaN or infinite values."""


class NotFittedError(UfcastError):
    """Estimator method requires a prior successful fit."""


class UnsupportedInSampleError(UfcastError):
    """Requested in-sample step is undefined for this model."""


class NonContiguousUpdateError(UfcastError):
    """Update data does not start at cutoff + 1."""


class UnknownParameterError(UfcastError):
    """set_params received a name that is not a declared hyper-parameter."""


class OptimizerFailedError(UfcastError):
    """No finite objective value anywhere on the search grid."""


class NonPositiveValuesError(UfcastError):
    """Operation requires strictly positive values."""


class DimensionMismatchError(UfcastError):
    """Regression input has the wrong number of features."""


class KTooLargeError(UfcastError):
    """k exceeds the number of stored training rows."""


class AllCandidatesFailedError(UfcastError):
    """Every tuning candidate errored on every split."""


class LengthMismatchError(UfcastError):
    """Paired sequences have different lengths."""


class ZeroDenominatorError(UfcastError):
    """Scale-free metric denominator is zero."""


class SeriesMismatchError(UfcastError):
    """Record collections do not cover the same series."""


class ZeroVarianceError(UfcastError):
    """Paired differences have zero variance."""


class DegenerateInputError(UfcastError):
    """Statistical test input too small or otherwise degenerate."""


class UnsupportedAlphaError(UfcastError):
    """Significance level without tabulated critical values."""


class AllZeroDifferencesError(UfcastError):
    """All paired differences are zero; signed-rank test undefined."""


class IncompleteGridError(UfcastError):
    """A model x series score grid has missing cells."""


class UnknownModelError(UfcastError):
    """Model name not present in the benchmark registry."""


class MalformedRowError(UfcastError):
    """Unparseable row in a dataset file."""

    def __init__(self, line_no, detail=""):
        self.line_no = line_no
        msg = f"malformed row at line {line_no}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class MissingTestSeriesError(UfcastError):
    """Training series id has no matching test series."""


class MissingReferenceError(UfcastError):
    """No published reference value for a requested (model, dataset, metric)."""


# What one fit-and-forecast on bad data may raise: the package's own errors
# and numpy/scipy's numeric ones (numpy's LinAlgError is a ValueError).  The
# runner turns these into error rows and grid search into failed candidates.
FIT_ERRORS = (UfcastError, ValueError, ArithmeticError)

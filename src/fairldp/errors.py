"""Exception hierarchy shared across the package.

Three families map onto the CLI exit codes: ConfigError (exit 2),
SolverError (exit 3), DataError (exit 4). Everything derives from
FairLdpError so callers can catch the whole package with one clause.
"""

from __future__ import annotations

import math
import sys

# e^epsilon overflows a double beyond ln(DBL_MAX), about 709.78
MAX_EPSILON = math.log(sys.float_info.max)


class FairLdpError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FairLdpError):
    """A run configuration or parameter is invalid or unusable."""


class DataError(FairLdpError):
    """Input data violates a precondition of the requested computation."""


class SolverError(FairLdpError):
    """The optimization layer could not produce a usable answer."""


class InvalidEpsilon(ConfigError):
    """Privacy budget must be strictly positive, with e^epsilon finite."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        super().__init__(
            f"privacy budget must lie in (0, {MAX_EPSILON:.2f}], got {epsilon!r}"
        )


def check_epsilon(epsilon: float) -> None:
    """Raise InvalidEpsilon unless 0 < epsilon <= MAX_EPSILON (NaN fails)."""
    if not 0.0 < epsilon <= MAX_EPSILON:
        raise InvalidEpsilon(epsilon)


class EmptyGroup(DataError):
    """A sensitive group has no records."""

    def __init__(self, group: int):
        self.group = group
        super().__init__(f"sensitive group {group} has no records")


class NonBinaryLabel(DataError):
    """A label value outside the two expected literals was found."""


class ZeroPositiveRate(DataError):
    """Pr(Y=1) = 0, so relative unfairness is undefined."""


class DegenerateOutput(DataError):
    """A mechanism output value has zero probability mass."""

    def __init__(self, value: int):
        self.value = value
        super().__init__(f"output value {value} has zero probability mass")


class AlphabetMismatch(DataError):
    """Mechanism alphabet size does not match the dataset's."""

    def __init__(self, mechanism_k: int, data_k: int):
        self.mechanism_k = mechanism_k
        self.data_k = data_k
        super().__init__(
            f"mechanism is over {mechanism_k} values but data has {data_k}"
        )


class ZeroBaseUnfairness(DataError):
    """The unfairness ratio is undefined because the input data is already fair."""


class NotBinary(DataError):
    """The operation requires a binary sensitive attribute (k = 2)."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"operation requires k = 2, got k = {k}")


class InfeasibleBudget(SolverError):
    """No mechanism satisfies the privacy and utility budgets jointly."""

    def __init__(self, epsilon: float, zeta: float):
        self.epsilon = epsilon
        self.zeta = zeta
        super().__init__(
            f"no feasible mechanism at epsilon={epsilon!r}, zeta={zeta!r}; "
            f"the utility budget is too tight for this privacy level"
        )


class NumericalFailure(SolverError):
    """A numerical routine could not certify its result.

    A failed design LP also says where it failed: the design stage, the
    disparity target t, the HiGHS status and message, and the problem's k,
    epsilon and zeta.  A field that does not apply is None.
    """

    FIELDS = ("stage", "t", "status", "message", "k", "epsilon", "zeta")

    def __init__(
        self,
        reason: str,
        *,
        stage: str | None = None,
        t: float | None = None,
        status: int | None = None,
        message: str | None = None,
        k: int | None = None,
        epsilon: float | None = None,
        zeta: float | None = None,
    ):
        self.stage = stage
        self.t = t
        self.status = status
        self.message = message
        self.k = k
        self.epsilon = epsilon
        self.zeta = zeta
        super().__init__(reason)

    def details(self) -> dict:
        """The fields that apply, in FIELDS order."""
        values = {name: getattr(self, name) for name in self.FIELDS}
        return {name: value for name, value in values.items() if value is not None}


class SingleClassTrainingSet(DataError):
    """Training data contains only one label class."""


class NonFiniteLoss(DataError):
    """Training diverged to a non-finite loss or gradient."""


class UndefinedRate(DataError):
    """A group rate (TPR or FPR) is undefined for lack of records."""

    def __init__(self, group: int, rate: str):
        self.group = group
        self.rate = rate
        super().__init__(f"{rate} undefined for group {group} (no qualifying records)")


class SchemaMismatch(DataError):
    """Evaluation data does not match the schema the model was trained on."""


class MissingColumn(DataError):
    """A declared column is absent from the CSV header."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} not found in header")


class UnparseableCell(DataError):
    """A CSV cell could not be parsed under the declared schema."""

    def __init__(self, row: int, column: str, detail: str = ""):
        self.row = row
        self.column = column
        msg = f"cannot parse row {row}, column {column!r}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class EmptyFile(DataError):
    """The CSV contains no data rows."""

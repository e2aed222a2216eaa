"""Exception hierarchy.

Every contract violation raises a ``ContractError`` subclass carrying a
stable ``code`` string, so the CLI can emit machine-readable errors and
callers can branch on the code without string matching.
"""


class ContractError(Exception):
    """A precondition or documented error condition of an operation."""

    code = "contract"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class OutOfRange(ContractError):
    code = "out-of-range"


class MissingConstant(ContractError):
    code = "missing-constant"


class NotInjective(ContractError):
    code = "not-injective"


class LanguageMismatch(ContractError):
    code = "language-mismatch"


class ArityMismatch(ContractError):
    code = "arity-mismatch"


class InterpretationIncomplete(ContractError):
    code = "interpretation-incomplete"


class LanguageHasConstants(ContractError):
    code = "language-has-constants"


class FitFailed(ContractError):
    code = "fit-failed"


class MixedSizeCase(ContractError):
    """Template size vectors overlap only through threshold absorption.

    Equivalence testing rejects this configuration with a diagnostic
    instead of silently picking a side.
    """

    code = "mixed-size-case"


class BudgetExceeded(ContractError):
    code = "budget-exceeded"


class TooFewRows(ContractError):
    code = "too-few-rows"


class InsufficientComponents(ContractError):
    code = "insufficient-components"


class BadSplit(ContractError):
    code = "bad-split"


class EmptyVertexSet(ContractError):
    code = "empty-vertex-set"


class InfeasibleDensity(ContractError):
    code = "infeasible-density"


class SearchBudgetExceeded(ContractError):
    code = "search-budget-exceeded"


class TooSmall(ContractError):
    code = "too-small"


class SampleBudgetExceeded(ContractError):
    code = "sample-budget-exceeded"


class UnknownKind(ContractError):
    code = "unknown-kind"


class UsageError(ContractError):
    code = "usage"

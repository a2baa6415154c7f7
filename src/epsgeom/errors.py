"""Exception types shared across the package.

Every domain error carries a stable machine-readable ``code`` that the CLI
serializes verbatim, so the class names here are part of the external contract.
"""


class EpsgeomError(Exception):
    code = "error"

    def __init__(self, message=""):
        super().__init__(message)
        self.message = message


class DivisionByZero(EpsgeomError):
    code = "DivisionByZero"


class NonConstructibleRoot(EpsgeomError):
    code = "NonConstructibleRoot"


class UnlimitedValue(EpsgeomError):
    code = "UnlimitedValue"


class ParseError(EpsgeomError):
    code = "ParseError"

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.reason = message
        self.position = position


class UnassignedVariable(EpsgeomError):
    code = "UnassignedVariable"


class UnlimitedCoefficient(EpsgeomError):
    code = "UnlimitedCoefficient"


class ZeroPolynomial(EpsgeomError):
    code = "ZeroPolynomial"


class SupportMismatch(EpsgeomError):
    code = "SupportMismatch"


class ReservedVariableInUse(EpsgeomError):
    code = "ReservedVariableInUse"


class NotAShadowRoot(EpsgeomError):
    code = "NotAShadowRoot"


class EmptyOpen(EpsgeomError):
    code = "EmptyOpen"


class NotASolution(EpsgeomError):
    code = "NotASolution"


class NotAComplex(EpsgeomError):
    code = "NotAComplex"


class DuplicateParameter(EpsgeomError):
    code = "DuplicateParameter"


class ZeroParameter(EpsgeomError):
    code = "ZeroParameter"


class ZeroDenominator(EpsgeomError):
    code = "ZeroDenominator"


class InvalidInput(EpsgeomError):
    # precondition violations that have no more specific name above
    code = "InvalidInput"


class CorpusMismatch(EpsgeomError):
    code = "CorpusMismatch"

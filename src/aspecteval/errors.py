"""Exception types shared across the package.

Everything raised on purpose derives from :class:`EvalError`, so callers
(including the CLI) can distinguish "your input is bad" from genuine bugs.
"""


class EvalError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(EvalError):
    """An aspect schema is malformed or violates a structural invariant."""


class DimensionMismatch(EvalError):
    """A label tuple has the wrong number of aspects for the schema."""


class MissingBestTuple(EvalError):
    """A tuple space does not contain the best tuple, so no order exists."""


class PolicyViolation(EvalError):
    """An explicit weight list is not a valid order-preserving assignment."""


class ConfigError(EvalError):
    """A measure or job configuration is invalid or inconsistent."""


class WeightError(EvalError):
    """Aspect importance weights are out of range or do not sum to one."""


class ParseError(EvalError):
    """An input file could not be parsed.

    Carries the one-based line number when known, and, when the text was
    one aspect's qrels given to ``join_aspect_qrels``, that aspect.
    """

    aspect: str | None = None

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateDoc(ParseError):
    """The same document appears twice where it must be unique."""


class MixedRunTag(ParseError):
    """A run file contains more than one run tag."""


class UnknownLabel(ParseError):
    """A qrels row uses a label that the schema does not define."""


class AspectCountMismatch(ParseError):
    """A qrels row carries more grade columns than the schema has aspects."""


class DegenerateInput(EvalError):
    """A statistic is undefined for the given input (e.g. a constant list)."""


class MatrixMismatch(EvalError):
    """Two score matrices do not cover the same runs and topics."""

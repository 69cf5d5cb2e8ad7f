"""Exception types shared across the package.

The CLI maps these onto exit codes: :class:`InputError` (and subclasses)
exit with 2, :class:`CapacityError` with 3. Verification/test failures are
ordinary results, not exceptions, and exit with 1.
"""


class InputError(ValueError):
    """Invalid user input: malformed graphs, bad queries, broken preconditions."""


def file_error(path, exc: OSError | UnicodeDecodeError, verb: str = "read") -> InputError:
    """The :class:`InputError` for a file that cannot be read or written."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return InputError(f"cannot {verb} {str(path)!r}: {reason}")


class GraphParseError(InputError):
    """Syntax or structural error in the graph text format."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


class CapacityError(RuntimeError):
    """A deliberately exponential step exceeded its fixed work budget."""


class NumericError(RuntimeError):
    """A numeric computation left its supported regime (e.g. a non-PD matrix)."""


class GenerationError(RuntimeError):
    """Random parameter construction failed after bounded retries."""


class InternalError(RuntimeError):
    """An invariant the algorithms guarantee was violated; indicates a bug."""

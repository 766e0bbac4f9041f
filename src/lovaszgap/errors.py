"""Exception types shared across the toolkit.

Each class carries a short machine-greppable ``kind`` used by the CLI to
build ``error:<kind>:`` lines and to pick exit codes.
"""


class ToolkitError(Exception):
    kind = "error"


class ParameterError(ToolkitError):
    """Invalid construction or operation parameters (CLI exit 2)."""

    kind = "parameter"


class InputError(ToolkitError):
    """Unreadable or malformed input file (CLI exit 2)."""

    kind = "input"


class OutputError(ToolkitError):
    """An output file that cannot be written (CLI exit 2)."""

    kind = "output"


class PreconditionError(ToolkitError):
    """A verifier was invoked on inputs outside its hypotheses (CLI exit 2)."""

    kind = "precondition"


class CertificateError(ToolkitError):
    """Malformed witness data handed to a certificate checker (CLI exit 2)."""

    kind = "certificate"


class BudgetExceededError(ToolkitError):
    """Face enumeration overran its size guard (CLI exit 3)."""

    kind = "budget"

    def __init__(self, dimension: int, limit: int):
        self.dimension = dimension
        self.limit = limit
        super().__init__(
            f"face-count budget {limit} exceeded while enumerating "
            f"dimension {dimension}"
        )

"""Exception types shared across the package."""


class GraphInputError(ValueError):
    """Malformed graph input (bad vertex id, self-loop, unparsable line)."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


class CapExceeded(ValueError):
    """Instance exceeds a hard size cap of an exponential-time routine."""


class ConstructionFailure(RuntimeError):
    """A constructive routine could not produce its object.

    Raised instead of ever returning an unverified certificate.
    """


class EngineIncomplete(RuntimeError):
    """The cycle/cover engine exhausted its budget without any contractual outcome."""


class StateBudgetExceeded(Exception):
    """An exact search passed its state budget (DET_STATE_BUDGET states); it
    raises this rather than answer a None that would read as absence."""

"""Exception types shared across the toolkit."""


class EmptyConfigurationError(ValueError):
    """An operation required a nonempty queue configuration."""


class DimensionMismatchError(ValueError):
    """Structural fields of a network specification disagree in size."""


class NegativeRateError(ValueError):
    """An arrival rate is negative or a service rate is not positive."""


class NonTransientRoutingError(ValueError):
    """The routing matrix is not substochastic-transient (powers do not vanish)."""


class UnknownFixtureError(ValueError):
    """No built-in network is registered under the requested name."""


class BudgetExceededError(RuntimeError):
    """The exact engine's state-count budget was exhausted."""


class NotASubconfigurationError(ValueError):
    """A coupling was requested for states not ordered by the subsequence relation."""


class UnsupportedCouplingError(ValueError):
    """The coupling construction only covers stations serving one class at a time."""


class BracketFailureError(RuntimeError):
    """The threshold search never bracketed the requested level."""

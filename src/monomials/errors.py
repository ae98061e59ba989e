"""Exception types shared across the library."""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured budget.

    ``stage`` names the library function that refused the work."""

    def __init__(self, message, needed=None, budget=None, stage=None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget
        self.stage = stage


class NonPointedConeError(PreconditionError):
    """Hilbert bases are only defined for pointed cones."""


class InternalConsistencyError(AssertionError):
    """Two routes that a theorem forces to agree disagreed (bug trap)."""

"""Exception types shared across the package."""


class InvalidModeError(ValueError):
    """A wavevector or mode index that must be nonzero was zero."""


class OutOfLatticeError(KeyError):
    """A mode index that is not a member of the lattice was referenced."""


class NotDivergenceFreeError(ValueError):
    """An operation requiring a divergence-free state got one that is not."""


class NotAnEquilibriumError(ValueError):
    """An analysis that holds only at equilibria got a state whose residual is above tolerance."""


class TruncationTooSmallError(ValueError):
    """A construction needs modes outside the truncated lattice box."""


class BlowUpError(RuntimeError):
    """Non-finite values appeared during time integration."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class NonFiniteError(ArithmeticError):
    """A result at a finite input overflowed to a non-finite value."""


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""

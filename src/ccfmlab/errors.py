"""Exception taxonomy for ccfmlab.

Configuration problems (bad JSON, inconsistent parameters, invalid flag
combinations) raise :class:`InvalidConfigError`; failures of the numerics
themselves (domain breakdown during integration, non-converged root solves,
residuals out of tolerance) raise subclasses of :class:`NumericalError`.
The CLI maps the former to exit code 2 and the latter to exit code 3.
"""


class CcfmError(Exception):
    """Base class for all ccfmlab errors."""


class InvalidConfigError(CcfmError):
    """A configuration or argument is malformed or inconsistent."""


class NumericalError(CcfmError):
    """A numerical procedure failed or left its domain of validity."""


class DomainBreakdownError(NumericalError):
    """A headway y_i + b_i, or a speed base under a negative integer m, left the domain."""

    def __init__(self, t: float, pair: int, value: float, quantity: str = "headway"):
        self.t = t
        self.pair = pair
        self.value = value
        self.quantity = quantity
        base = f"headway base y_{pair} + b_{pair} = {value:.6g} <= 0"
        if quantity == "speed":
            base = f"speed base of pair {pair} = {value:.6g} under a negative integer exponent m"
        super().__init__(f"{base} at t = {t:.6g}; the interaction term is undefined past this point")


class NegativeVelocityBaseError(NumericalError):
    """A velocity base became zero or negative while the exponent m is non-integer."""

    def __init__(self, t: float, pair: int, value: float, m: float):
        self.t = t
        self.pair = pair
        self.value = value
        self.m = m
        super().__init__(
            f"velocity base {value:.6g} <= 0 at t = {t:.6g} (pair {pair}) cannot be "
            f"raised to non-integer exponent m = {m:g}"
        )


class RootSolveError(NumericalError):
    """An iterative root solve failed to converge, or converged off the principal branch."""


class UnstableRegimeError(NumericalError):
    """A quantity that only exists for stable dynamics was requested in an unstable regime."""

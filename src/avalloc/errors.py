"""Exception types shared across the toolkit."""


class AvallocError(Exception):
    """Base class for all toolkit errors."""


class InvalidInstance(AvallocError, ValueError):
    """Instance data violates a structural invariant."""


class UnknownEdge(AvallocError, ValueError):
    """An allocation references an (item, buyer) pair that is not an edge."""


class InfeasiblePrefix(AvallocError, ValueError):
    """An arrival order has a prefix whose allocation violates a buyer constraint."""


class InvalidBundling(AvallocError, ValueError):
    """A bundle set is inconsistent with the instance it claims to partition."""


class AmbiguousInstance(AvallocError, ValueError):
    """Operation requires every item to be a pure P-item or pure N-item."""


class MissingBudgets(AvallocError, ValueError):
    """Operation requires budget data that the instance does not carry."""


class BadEps(AvallocError, ValueError):
    """Generator parameter eps outside its admissible range."""


class DomainError(AvallocError, ValueError):
    """Numeric argument outside the domain of a formula."""


class GammaViolated(AvallocError, ValueError):
    """Some item type has expected arrivals below the required floor."""

    def __init__(self, offending, floor):
        self.offending = list(offending)
        self.floor = floor
        super().__init__(
            f"expected arrivals below floor {floor} for types: {self.offending}"
        )


class TooLarge(AvallocError):
    """Exhaustive search would exceed one of its size limits: what names the
    quantity ("work", the (state, subset) pairs the allocation oracles' DP
    would walk; "subset table width"; "GAP elements"; "GAP bins"),
    state_count is its value and limit the most allowed."""

    def __init__(self, what, state_count, limit):
        self.state_count = state_count
        self.limit = limit
        super().__init__(f"{what} {state_count} exceeds limit {limit}")


class InfeasibleFractional(AvallocError, ValueError):
    """A fractional solution violates its LP constraints beyond tolerance."""


class StreamModelMismatch(AvallocError, ValueError):
    """An online stream is inconsistent with the arrival model."""


class NotMaximal(AvallocError, ValueError):
    """A GAP solution leaves some zero-size element unpacked."""


class InfeasibleGapSolution(AvallocError, ValueError):
    """A GAP solution violates capacity or matroid constraints."""


class NumericalFailure(AvallocError, RuntimeError):
    """The LP solver could not certify a solution within tolerance."""


class PivotLimit(NumericalFailure):
    """A simplex made its pivot budget without reaching an optimum."""

    def __init__(self, what, pivots, limit):
        self.pivots = pivots
        self.limit = limit
        super().__init__(f"{what} limit exceeded: {pivots} pivots, limit {limit}")

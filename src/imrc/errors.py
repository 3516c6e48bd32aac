"""Exception hierarchy for the imrc package."""


class ImrcError(Exception):
    """Base class for all domain errors raised by this package."""


class NonFinite(ImrcError):
    """A channel gain or power budget is NaN or infinite, or a product the
    kernel forms of them overflows (model.validate)."""


class NegativePower(ImrcError):
    """A power budget is negative."""


class InfeasibleRadicand(ImrcError):
    """The zero-forcing line misses the relay power circle: relay power
    share too small for this cross gain and power split."""


class DegenerateRelayChannel(ImrcError):
    """The relay-to-receiver vector is identically zero; beamforming
    toward that receiver is undefined."""


class DegenerateAntenna(DegenerateRelayChannel):
    """The relay channel is too degenerate for the low-power expansion
    (zero relay-to-receiver vector)."""


class LinearizationInfeasible(ImrcError):
    """The low-power expansion has no real construction for this power
    split (its square root argument is not positive)."""


class BadBlockCount(ImrcError):
    """Block-Markov transmission needs an integer block count B >= 2."""


class NoFeasibleRho(ImrcError):
    """No relay power split in the given grid admits the low-power
    construction for either user."""


class NoSignChange(ImrcError):
    """Bisection interval does not bracket a root."""


class NoFeasiblePoint(ImrcError):
    """Grid search found no feasible allocation at all."""

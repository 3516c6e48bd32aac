"""Problem-instance types for the two-user interference channel with a
two-antenna full-duplex decode-and-forward relay.

Two transmitter-receiver pairs share the medium. Transmitter i reaches its
own receiver with gain h_ii, the other receiver with gain h_ij, and the
relay's two antennas with the 2-vector g_iR. The relay reaches receiver i
with the 2-vector hRi. Noise is unit variance at every receive antenna and
is not stored. Each transmitter has power budget P, the relay has PR; the
relay splits its power rho1 : (1 - rho1) between the two users' streams.

Transmission is block based: each transmitter spends p_i on its new message
and the remainder P - p_i on repeating the previous block's message
coherently with the relay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "ChannelSetup",
    "PowerAllocation",
    "FeasibilityReport",
    "validate",
    "feasibility",
    "example_channel",
    "parse_channel_text",
    "load_channel",
    "resolve_channel",
    "RADICAND_RTOL",
]

from .errors import NegativePower, NonFinite

# Relative slack on the beamforming feasibility radicand: grid sweeps land
# exactly on the feasibility boundary, so "slightly negative" within this
# factor of the radicand's positive part is treated as zero.
RADICAND_RTOL = 1e-12


def _vec2(value) -> tuple[float, float]:
    x, y = value
    return (float(x), float(y))


@dataclass(frozen=True)
class ChannelSetup:
    """Immutable channel instance: all gains plus the power budgets.

    h11, h22   direct gains; h12, h21 cross gains (transmitter i -> receiver j)
    g1R, g2R   transmitter -> relay 2-vectors
    hR1, hR2   relay -> receiver 2-vectors
    P, PR      per-transmitter and relay power budgets (linear units)
    """

    h11: float
    h12: float
    h21: float
    h22: float
    g1R: tuple[float, float]
    g2R: tuple[float, float]
    hR1: tuple[float, float]
    hR2: tuple[float, float]
    P: float
    PR: float
    # Squared norms used all over the rate formulas, computed once.
    g1R_norm2: float = field(init=False, repr=False, compare=False)
    g2R_norm2: float = field(init=False, repr=False, compare=False)
    hR1_norm2: float = field(init=False, repr=False, compare=False)
    hR2_norm2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h11", float(self.h11))
        object.__setattr__(self, "h12", float(self.h12))
        object.__setattr__(self, "h21", float(self.h21))
        object.__setattr__(self, "h22", float(self.h22))
        object.__setattr__(self, "g1R", _vec2(self.g1R))
        object.__setattr__(self, "g2R", _vec2(self.g2R))
        object.__setattr__(self, "hR1", _vec2(self.hR1))
        object.__setattr__(self, "hR2", _vec2(self.hR2))
        object.__setattr__(self, "P", float(self.P))
        object.__setattr__(self, "PR", float(self.PR))
        for name in ("g1R", "g2R", "hR1", "hR2"):
            x, y = getattr(self, name)
            object.__setattr__(self, f"{name}_norm2", x ** 2 + y ** 2)

    def relay_det(self) -> float:
        """det of the 2x2 relay-to-receivers matrix [hR1 hR2]."""
        return self.hR1[0] * self.hR2[1] - self.hR2[0] * self.hR1[1]

    def relay_dot(self) -> float:
        """hR1 . hR2."""
        return self.hR1[0] * self.hR2[0] + self.hR1[1] * self.hR2[1]


@dataclass(frozen=True)
class PowerAllocation:
    """A point in the scheme's decision space.

    p1, p2   new-message powers, each expected in [0, P]
    rho1     relay power fraction for user 1; user 2 gets 1 - rho1
    n1, n2   beamforming branch signs, each -1 or +1
    """

    p1: float
    p2: float
    rho1: float
    n1: int = 1
    n2: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p1", float(self.p1))
        object.__setattr__(self, "p2", float(self.p2))
        object.__setattr__(self, "rho1", float(self.rho1))
        if not (0.0 <= self.rho1 <= 1.0):
            raise ValueError(f"rho1 must lie in [0, 1], got {self.rho1}")
        if self.n1 not in (-1, 1) or self.n2 not in (-1, 1):
            raise ValueError("branch signs n1, n2 must be -1 or +1")
        if self.p1 < 0.0 or self.p2 < 0.0:
            raise ValueError("new-message powers must be nonnegative")

    @property
    def rho2(self) -> float:
        return 1.0 - self.rho1


def validate(setup: ChannelSetup) -> ChannelSetup:
    """Check finiteness and power signs; return the setup unchanged."""
    scalars = {
        "h11": setup.h11, "h12": setup.h12, "h21": setup.h21, "h22": setup.h22,
        "g1R[0]": setup.g1R[0], "g1R[1]": setup.g1R[1],
        "g2R[0]": setup.g2R[0], "g2R[1]": setup.g2R[1],
        "hR1[0]": setup.hR1[0], "hR1[1]": setup.hR1[1],
        "hR2[0]": setup.hR2[0], "hR2[1]": setup.hR2[1],
        "P": setup.P, "PR": setup.PR,
    }
    for name, value in scalars.items():
        if not math.isfinite(value):
            raise NonFinite(f"{name} is not finite: {value!r}")
    if setup.P < 0.0:
        raise NegativePower(f"P must be >= 0, got {setup.P}")
    if setup.PR < 0.0:
        raise NegativePower(f"PR must be >= 0, got {setup.PR}")
    return setup


def user_links(setup: ChannelSetup, alloc: PowerAllocation, user: int):
    """Per-user view used by the beamforming construction for `user`:
    (h_cross, hRj, hRi, rho_i, n_i, p_i) where j is the other receiver."""
    if user == 1:
        return setup.h12, setup.hR2, setup.hR1, alloc.rho1, alloc.n1, alloc.p1
    if user == 2:
        return setup.h21, setup.hR1, setup.hR2, alloc.rho2, alloc.n2, alloc.p2
    raise ValueError(f"user must be 1 or 2, got {user}")


def exact_radicand(setup: ChannelSetup, alloc: PowerAllocation, user: int) -> float:
    """Square-root argument of the beamforming solution for `user`
    (-h_ij^2 + ||hRj||^2 * rho_i*PR/(P - p_i)); requires p_i < P."""
    h_cross, hRj, _, rho_i, _, p_i = user_links(setup, alloc, user)
    norm2 = hRj[0] ** 2 + hRj[1] ** 2
    return -h_cross ** 2 + norm2 * (rho_i * setup.PR / (setup.P - p_i))


def linear_radicand(setup: ChannelSetup, rho_i: float, user: int) -> float:
    """Square-root argument S_i^2 of the low-power expansion:
    rho_i*PR*||hRj||^2/P - h_ij^2. Requires P > 0."""
    if user == 1:
        h_cross, hRj = setup.h12, setup.hR2
    elif user == 2:
        h_cross, hRj = setup.h21, setup.hR1
    else:
        raise ValueError(f"user must be 1 or 2, got {user}")
    norm2 = hRj[0] ** 2 + hRj[1] ** 2
    return rho_i * setup.PR * norm2 / setup.P - h_cross ** 2


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-user feasibility of the two constructions at an allocation.

    exact_i     the beamforming solution exists (radicand >= 0 within
                tolerance, or the p_i = P boundary construction applies)
    boundary_i  p_i = P, so the boundary construction is the one in force
    linear_i    the low-power expansion exists (S_i^2 > 0)
    radicand_i / s_radicand_i carry the raw square-root arguments
    (radicand_i is NaN on the boundary, s_radicand_i is NaN when P = 0).
    """

    exact1: bool
    exact2: bool
    boundary1: bool
    boundary2: bool
    linear1: bool
    linear2: bool
    radicand1: float
    radicand2: float
    s_radicand1: float
    s_radicand2: float


def feasibility(setup: ChannelSetup, alloc: PowerAllocation) -> FeasibilityReport:
    """Report (never raise) which constructions are available per user."""
    flags = {}
    for user in (1, 2):
        h_cross, hRj, _, rho_i, _, p_i = user_links(setup, alloc, user)
        norm2 = hRj[0] ** 2 + hRj[1] ** 2
        boundary = p_i >= setup.P
        if boundary:
            rad = float("nan")
            exact = True
        else:
            scale = norm2 * (rho_i * setup.PR / (setup.P - p_i))
            rad = -h_cross ** 2 + scale
            exact = rad >= -RADICAND_RTOL * abs(scale)
        if setup.P > 0.0:
            s_rad = linear_radicand(setup, rho_i, user)
            linear = s_rad > 0.0
        else:
            s_rad = float("nan")
            linear = False
        flags[user] = (exact, boundary, linear, rad, s_rad)
    e1, b1, l1, r1, s1 = flags[1]
    e2, b2, l2, r2, s2 = flags[2]
    return FeasibilityReport(e1, e2, b1, b2, l1, l2, r1, r2, s1, s2)


def example_channel() -> ChannelSetup:
    """The built-in worked example channel (also `--channel paper-example`
    on the CLI). Note det([hR1 hR2]) = 0 for this instance."""
    return ChannelSetup(
        h11=1.2, h12=0.5, h21=0.5, h22=1.2,
        g1R=(0.6, 1.2), g2R=(1.0, 0.5),
        hR1=(0.5, 1.0), hR2=(1.0, 2.0),
        P=0.1, PR=0.1,
    )


_SCALAR_KEYS = ("h11", "h12", "h21", "h22", "P", "PR")
_VECTOR_KEYS = ("g1R", "g2R", "hR1", "hR2")


def parse_channel_text(text: str) -> ChannelSetup:
    """Parse a key=value channel description.

    One `key = value` per line; `#` starts a comment; 2-vectors are two
    numbers separated by whitespace and/or a comma. Keys are exactly
    h11, h12, h21, h22, g1R, g2R, hR1, hR2, P, PR; all required.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        parts = rhs.replace(",", " ").split()
        if key in _SCALAR_KEYS:
            if len(parts) != 1:
                raise ValueError(f"line {lineno}: {key} takes one number")
            values[key] = float(parts[0])
        elif key in _VECTOR_KEYS:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: {key} takes two numbers")
            values[key] = (float(parts[0]), float(parts[1]))
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    missing = [k for k in _SCALAR_KEYS + _VECTOR_KEYS if k not in values]
    if missing:
        raise ValueError(f"missing channel keys: {', '.join(sorted(missing))}")
    return validate(ChannelSetup(**values))  # type: ignore[arg-type]


def load_channel(path: str) -> ChannelSetup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_channel_text(fh.read())


def resolve_channel(source: str) -> ChannelSetup:
    """Resolve a CLI channel source: the literal `paper-example` for the
    built-in instance, anything else as a config file path."""
    if source == "paper-example":
        return example_channel()
    return load_channel(source)

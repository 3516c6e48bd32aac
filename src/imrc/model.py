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

from .errors import (DegenerateRelayChannel, InfeasibleRadicand,
                     NegativePower, NonFinite)

# Relative slack on the beamforming feasibility radicand: grid sweeps land
# exactly on the feasibility boundary, so "slightly negative" within this
# factor of the radicand's positive part is treated as zero.
RADICAND_RTOL = 1e-12

# det(H) = a d - b c is stored as exactly 0 when it is at most this factor
# of |a d| + |b c|. Each product rounds by half an ulp and columns built
# parallel were rounded once more, so parallel columns leave a residue of
# about 2^-52 (|a d| + |b c|); an exact 0 makes the beam branches and the
# relay split tie exactly instead of by rounding.
_DET_RTOL = 2.0 ** -51


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
    # det([hR1 hR2]) (0 for parallel columns, see _DET_RTOL) and hR1 . hR2
    hR_det: float = field(init=False, repr=False, compare=False)
    hR_dot: float = field(init=False, repr=False, compare=False)
    # det([g1R g2R])^2 expanded, the MAC sum cap's alpha, at least 0 so
    # that the cap never falls as a power grows (parallel columns round it)
    mac_alpha: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _SCALAR_KEYS:
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in _VECTOR_KEYS:
            x, y = (float(v) for v in getattr(self, name))
            object.__setattr__(self, name, (x, y))
            object.__setattr__(self, f"{name}_norm2", _square(x) + _square(y))
        (a, c), (b, d) = self.hR1, self.hR2
        ad, bc = a * d, b * c
        det = ad - bc
        if abs(det) <= _DET_RTOL * (abs(ad) + abs(bc)):
            det = 0.0
        object.__setattr__(self, "hR_det", det)
        object.__setattr__(self, "hR_dot", a * b + c * d)
        (g11, g12), (g21, g22) = self.g1R, self.g2R
        alpha = (_square(g11 * g22) + _square(g21 * g12)
                 - 2.0 * g12 * g21 * g11 * g22)  # NaN stays, for validate
        object.__setattr__(self, "mac_alpha", 0.0 if alpha < 0.0 else alpha)

    def relay_det(self) -> float:
        """det of the 2x2 relay-to-receivers matrix [hR1 hR2]."""
        return self.hR_det


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
        if not (self.p1 >= 0.0 and self.p2 >= 0.0):  # NaN fails too
            raise ValueError("new-message powers must be nonnegative")

    @property
    def rho2(self) -> float:
        return 1.0 - self.rho1

    def user(self, user: int) -> tuple[float, float, int]:
        """(p_i, rho_i, n_i) of `user`."""
        if user == 1:
            return self.p1, self.rho1, self.n1
        if user == 2:
            return self.p2, self.rho2, self.n2
        raise ValueError(f"user must be 1 or 2, got {user}")


def _square(x: float) -> float:
    """x ** 2, or inf where it overflows: float ** raises OverflowError
    there. Not x * x, which libm's pow does not always match."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def validate(setup: ChannelSetup) -> ChannelSetup:
    """Return the setup unchanged if it lies in the supported domain: finite
    gains and budgets P, PR >= 0, and every product the kernel forms finite.
    Those are each gain's square and det([g1R g2R])^2; PR / P where P > 0;
    user i's MAC and interference terms ||g_iR||^2 P and h_ji^2 P at
    p_i = P; the bound (|a_i| sqrt(P) + |det(H)| sqrt(PR / ||hRj||^2))^2 on
    its repeat signal f_ii^2 (P - p_i) (search's module docstring, at r = P
    and c = 0); PR det(H)^2, which bounds boundary_signal's product before
    it divides by ||hRj||^2; and the radicand's term
    rho_i PR / (P - p_i) ||hRj||^2 at its least P - p_i, which is at least
    2^-53 P for a float p_i < P (the kernel puts 1 in its place at P = 0).
    A zero hRj leaves user i no signal. Raises NonFinite, which names the
    budgets where one of their products overflows, or NegativePower. An
    overflow of PR det(H)^2, or of a repeat-signal bound whose relay term
    |det(H)| sqrt(PR / ||hRj||^2) is larger than its direct term
    |a_i| sqrt(P), names PR, unless PR = P, where the one budget is P."""
    for name in _KEYS:
        value = getattr(setup, name)
        labeled = ([(f"{name}[0]", value[0]), (f"{name}[1]", value[1])]
                   if name in _VECTOR_KEYS else [(name, value)])
        for label, x in labeled:
            if not math.isfinite(x):
                raise NonFinite(f"{label} is not finite: {x!r}")
    for name in _KEYS[:8]:
        square = (getattr(setup, f"{name}_norm2") if name in _VECTOR_KEYS
                  else _square(getattr(setup, name)))
        if math.isinf(square):
            raise NonFinite(f"{name} is too large: its square overflows")
    if not math.isfinite(setup.mac_alpha):
        raise NonFinite("g1R and g2R are too large: det([g1R g2R])^2 "
                        "overflows")
    if setup.P < 0.0:
        raise NegativePower(f"P must be >= 0, got {setup.P}")
    if setup.PR < 0.0:
        raise NegativePower(f"PR must be >= 0, got {setup.PR}")
    if setup.P > 0.0 and math.isinf(setup.PR / setup.P):
        raise NonFinite(f"PR / P overflows: PR = {setup.PR!r}, P = {setup.P!r}")
    gain = max(setup.g1R_norm2, setup.g2R_norm2, setup.h12 ** 2,
               setup.h21 ** 2)
    # the repeat-signal bounds' square roots, of each user with a signal,
    # as their direct and relay terms; for each bound that overflows,
    # whether its relay term is the larger
    terms = [(abs(own_gain(setup, user, 1, 0.0)) * math.sqrt(setup.P),
              abs(setup.hR_det) / math.sqrt(norm2) * math.sqrt(setup.PR))
             for user, norm2 in ((1, setup.hR2_norm2), (2, setup.hR1_norm2))
             if norm2 > 0.0]
    relay = [x < y for x, y in terms if math.isinf((x + y) * (x + y))]
    by_pr = any(relay) or math.isinf(setup.PR * setup.hR_det * setup.hR_det)
    if (math.isinf(gain * setup.P) or not all(relay)
            or by_pr and setup.PR == setup.P):  # PR = P: one budget, named P
        raise NonFinite(f"budget P = {setup.P!r} is too large: ||g_iR||^2 "
                        "P, h_ji^2 P or a repeat signal overflows")
    if by_pr:
        raise NonFinite(f"budget PR = {setup.PR!r} is too large for P = "
                        f"{setup.P!r}: PR det(H)^2 or a relay term overflows")
    # the radicand's term at the least P - p_i; inf * 0 = NaN passes where
    # both relay columns are zero
    term = 2.0 ** 53 * (setup.PR / setup.P) if setup.P > 0.0 else setup.PR
    if math.isinf(term * max(setup.hR1_norm2, setup.hR2_norm2)):
        raise NonFinite("the zero-forcing radicand overflows: "
                        f"PR = {setup.PR!r}, P = {setup.P!r}")
    return setup


# The per-user kernel. Zero forcing turns the relay channel into an
# interference channel whose own gains depend on the powers; for user i, with
# j the other user and remaining = P - p_i > 0,
#
#     rad_i = ||hRj||^2 rho_i PR / remaining - h_ij^2,
#     f_ii  = h_ii - h_ij (hRi.hRj)/||hRj||^2
#             + orient n_i det(H) sqrt(rad_i)/||hRj||^2,
#
# and the repeated message arrives with power f_ii^2 remaining; at p_i = P
# the relay alone carries it, with power rho_i PR det(H)^2 / ||hRj||^2.
# The functions use only + - * /, abs, comparisons and the square of the
# scalar gain h_ij, so Python floats stay floats and numpy arrays broadcast;
# every array result is a new array, which a caller may write into, as
# search._signal does. Callers take the square root (math.sqrt or np.sqrt,
# both correctly rounded) and pick the boundary case themselves.

def _user(setup: ChannelSetup, user: int) -> tuple:
    """(h_ii, h_ij, ||hRj||^2, orient, hRi, hRj) of `user`, j the other
    user: hRi . [hRj2, -hRj1] is orient * det(H), +1 for user 1 and -1 for
    user 2. A zero hRj leaves no beam that cancels the cross link."""
    if user == 1:
        terms = setup.h11, setup.h12, setup.hR2_norm2, 1.0, setup.hR1, setup.hR2
    elif user == 2:
        terms = setup.h22, setup.h21, setup.hR1_norm2, -1.0, setup.hR2, setup.hR1
    else:
        raise ValueError(f"user must be 1 or 2, got {user}")
    if terms[2] == 0.0:
        raise DegenerateRelayChannel("relay-to-receiver vector is zero")
    return terms


def zf_radicand(setup: ChannelSetup, user: int, rho_i, remaining):
    """(rad_i, feasible): the zero-forcing radicand at P - p_i = remaining,
    and whether it counts as nonnegative (within RADICAND_RTOL of its
    positive part). remaining = P gives the low-power expansion's S_i^2."""
    _, h_cross, norm2, *_ = _user(setup, user)
    positive = rho_i * setup.PR / remaining * norm2
    rad = positive - h_cross ** 2
    return rad, rad >= -RADICAND_RTOL * abs(positive)


def zf_root(setup: ChannelSetup, user: int, rho_i: float,
            remaining: float) -> float:
    """sqrt(rad_i) for scalars, a tolerated negative radicand taken as 0;
    raises InfeasibleRadicand when zero forcing fails."""
    rad, feasible = zf_radicand(setup, user, rho_i, remaining)
    if not feasible:
        raise InfeasibleRadicand(
            f"zero-forcing infeasible for user {user}: radicand {rad:.3e} < 0")
    return math.sqrt(max(rad, 0.0))


def own_gain(setup: ChannelSetup, user: int, sign, root):
    """f_ii for branch sign n_i and root = sqrt(rad_i)."""
    h_own, h_cross, norm2, orient, *_ = _user(setup, user)
    return (orient * sign * setup.hR_det * root / norm2
            + (h_own - h_cross * setup.hR_dot / norm2))


def branch_sign(setup: ChannelSetup, user: int) -> int:
    """The n_i whose |f_ii| is never smaller, at any rho_i and p_i: with
    f_ii = a_i + n_i b_i sqrt(rad_i), +1 when a_i b_i > 0, else -1 (a tie,
    bit for bit, where a_i b_i = 0). Rounding is monotone and symmetric, so
    |fl(a + c)| >= |fl(a - c)| whenever c has the sign of a."""
    h_own, h_cross, norm2, orient, *_ = _user(setup, user)
    offset = h_own - h_cross * setup.hR_dot / norm2  # a_i, as in own_gain
    slope = orient * setup.hR_det  # b_i's sign; the product could underflow
    if (offset > 0.0 and slope > 0.0) or (offset < 0.0 and slope < 0.0):
        return 1
    return -1


def own_signal(setup: ChannelSetup, user: int, sign, root, remaining):
    """f_ii^2 (P - p_i): received power of the repeated message, p_i < P."""
    gain = own_gain(setup, user, sign, root)
    return gain * gain * remaining


def boundary_signal(setup: ChannelSetup, user: int, rho_i):
    """rho_i PR det(H)^2 / ||hRj||^2: the same power at p_i = P."""
    norm2 = _user(setup, user)[2]
    return rho_i * setup.PR * setup.hR_det * setup.hR_det / norm2


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-user feasibility of the two constructions at an allocation.

    exact_i     the beamforming solution exists (radicand >= 0 within
                tolerance, or the p_i = P boundary construction applies)
    boundary_i  p_i = P, so the boundary construction is the one in force
    linear_i    the low-power expansion exists (S_i^2 > 0)
    radicand_i / s_radicand_i carry the raw square-root arguments
    (radicand_i is NaN on the boundary, s_radicand_i is NaN when P = 0,
    and both are NaN for a zero relay column).
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
    """Report (never raise) which constructions are available per user. A
    zero relay column hRj leaves user i neither construction."""
    nan = float("nan")
    flags = []
    for user, norm2 in ((1, setup.hR2_norm2), (2, setup.hR1_norm2)):
        p_i, rho_i, _ = alloc.user(user)
        boundary = p_i >= setup.P
        if norm2 == 0.0:
            flags.append((False, boundary, False, nan, nan))
            continue
        if boundary:
            rad, exact = nan, True
        else:
            rad, exact = zf_radicand(setup, user, rho_i, setup.P - p_i)
        s_rad = nan
        if setup.P > 0.0:
            s_rad, _ = zf_radicand(setup, user, rho_i, setup.P)
        flags.append((exact, boundary, s_rad > 0.0, rad, s_rad))
    (e1, b1, l1, r1, s1), (e2, b2, l2, r2, s2) = flags
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


_KEYS = ("h11", "h12", "h21", "h22", "g1R", "g2R", "hR1", "hR2", "P", "PR")
_VECTOR_KEYS = _KEYS[4:8]
_SCALAR_KEYS = _KEYS[:4] + _KEYS[8:]


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
    missing = [k for k in _KEYS if k not in values]
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

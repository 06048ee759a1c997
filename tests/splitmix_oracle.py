"""Scalar SplitMix64, one draw at a time: the reference the vectorised
drawer of ``randev.sources`` is tested against."""

from dataclasses import dataclass

from randev.config import ParameterError

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class RngState:
    """State of the base deterministic generator (SplitMix64)."""

    s: int

    def __post_init__(self):
        if not 0 <= self.s <= MASK64:
            raise ParameterError(f"rng state must be a 64-bit unsigned value, got {self.s}")


def splitmix_next(state: RngState) -> tuple[RngState, int]:
    """Advance SplitMix64 by one step.

    The recurrence, bit-exact: s += 0x9E3779B97F4A7C15 (mod 2**64);
    z = s; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9; z = (z ^ (z >> 27))
    * 0x94D049BB133111EB; output z ^ (z >> 31).

    Returns:
        (new state, 64-bit output value).
    """
    s = (state.s + GAMMA) & MASK64
    z = s
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return RngState(s), z ^ (z >> 31)


def uniform_from_output(value: int) -> float:
    """Map a 64-bit generator output to a uniform real in [0, 1)."""
    return (value >> 11) * 2.0**-53

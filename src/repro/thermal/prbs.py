"""Pseudo-random binary sequence (PRBS) generation for system identification.

Section 4.2.1: "we oscillated the frequency of big cores between the
minimum and maximum values using a pseudo-random bit sequence (PRBS) ...
The PRBS input is generated to cover a frequency spectrum, which is much
broader than that excited by an arbitrary application."

A maximal-length LFSR produces the classic PRBS-n sequences; each chip is
held for a configurable dwell so the excitation bandwidth matches the
thermal dynamics (seconds) rather than the control period (100 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Feedback tap positions (1-based, including the output bit) for
#: maximal-length LFSRs of common orders.
_TAPS = {
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
}


def prbs_bits(order: int, length: int = None, seed: int = 1) -> np.ndarray:
    """Generate a PRBS-``order`` bit sequence ({0, 1} valued).

    Parameters
    ----------
    order:
        LFSR register length; the sequence period is ``2**order - 1``.
    length:
        Number of bits to emit (defaults to one full period).
    seed:
        Non-zero initial register state.
    """
    if order not in _TAPS:
        raise ConfigurationError(
            "unsupported PRBS order %d (supported: %s)"
            % (order, sorted(_TAPS))
        )
    period = 2 ** order - 1
    if length is None:
        length = period
    if length < 1:
        raise ConfigurationError("length must be >= 1")
    state = seed % (2 ** order)
    if state == 0:
        state = 1
    # Right-shifting Fibonacci LFSR: the output is the LSB and the feedback
    # bit (XOR of the reflected tap positions) enters at the MSB.
    tap_shifts = [order - tap for tap in _TAPS[order]]
    bits = np.empty(length, dtype=np.int8)
    for i in range(length):
        bits[i] = state & 1
        feedback = 0
        for shift in tap_shifts:
            feedback ^= (state >> shift) & 1
        state = (state >> 1) | (feedback << (order - 1))
    return bits


def prbs_levels(order: int, length: int = None, seed: int = 1) -> np.ndarray:
    """PRBS sequence mapped to {-1, +1}."""
    return prbs_bits(order, length, seed).astype(np.int8) * 2 - 1


@dataclass(frozen=True)
class PrbsSignal:
    """A two-level PRBS excitation with a chip dwell time.

    ``low`` / ``high`` are the two actuator levels (e.g. f_min and f_max of
    the big cluster); ``chip_s`` is how long each PRBS bit is held.
    """

    low: float
    high: float
    chip_s: float
    order: int = 9
    seed: int = 1

    def __post_init__(self) -> None:
        if self.chip_s <= 0:
            raise ConfigurationError("chip dwell must be positive")
        if self.high <= self.low:
            raise ConfigurationError("high level must exceed low level")

    @cached_property
    def bits(self) -> np.ndarray:
        """One full period of the sequence, generated once per signal."""
        return prbs_bits(self.order, seed=self.seed)

    def value_at(self, time_s: float) -> float:
        """Actuator level at ``time_s`` (sequence repeats past one period)."""
        chip = int(time_s / self.chip_s) % self.bits.size
        return self.high if self.bits[chip] else self.low

    def sample(self, duration_s: float, sample_period_s: float) -> np.ndarray:
        """The signal sampled on a regular grid over ``duration_s``."""
        if sample_period_s <= 0:
            raise ConfigurationError("sample period must be positive")
        n = int(round(duration_s / sample_period_s))
        period = self.bits.size
        out = np.empty(n)
        for i in range(n):
            chip = int(i * sample_period_s / self.chip_s) % period
            out[i] = self.high if self.bits[chip] else self.low
        return out


def balance(bits: Sequence[int]) -> float:
    """Fraction of ones in a bit sequence (maximal PRBS: ~0.5 + 1/2N)."""
    arr = np.asarray(bits)
    if arr.size == 0:
        raise ConfigurationError("empty sequence")
    return float(np.mean(arr))

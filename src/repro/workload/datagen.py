"""Low-level seeded data generation primitives."""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from typing import Any, Sequence, Tuple

_EPOCH_2000 = 10957  # days from 1970-01-01 to 2000-01-01


@functools.lru_cache(maxsize=64)
def _zipf_weights(categories: int, skew: float) -> Tuple[float, Tuple[float, ...]]:
    """``(sum of weights, running weight totals)`` of the Zipf weights
    ``1 / rank**skew``, summed left to right as a loop over them would."""
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(categories)]
    return sum(weights), tuple(itertools.accumulate(weights))


class DataGenerator:
    """A seeded source of the value patterns the experiments plant.

    All methods are pure functions of the generator's internal PRNG state,
    so a scenario built from one seed is fully deterministic.
    """

    def __init__(self, seed: int = 0) -> None:
        self.random = random.Random(seed)

    # -- scalars -------------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self.random.uniform(low, high)

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return self.random.randint(low, high)

    def day_in_year(self, year_start: int = _EPOCH_2000, days: int = 365) -> int:
        """A day number within one year starting at ``year_start``."""
        return year_start + self.random.randrange(days)

    def choice(self, values: Sequence[Any]) -> Any:
        return self.random.choice(values)

    def bernoulli(self, probability: float) -> bool:
        return self.random.random() < probability

    # -- column patterns ----------------------------------------------------------

    def linear_pair(
        self,
        slope: float,
        intercept: float,
        noise: float,
        b_low: float = 0.0,
        b_high: float = 1000.0,
    ) -> Tuple[float, float]:
        """(a, b) with ``a = slope*b + intercept + U(-noise, +noise)``."""
        b = self.random.uniform(b_low, b_high)
        a = slope * b + intercept + self.random.uniform(-noise, noise)
        return a, b

    def duration_days(
        self,
        short_max: int = 30,
        long_max: int = 300,
        long_fraction: float = 0.1,
    ) -> int:
        """Mostly-short durations with a long tail.

        ``1 - long_fraction`` of values fall in [1, short_max]; the rest in
        (short_max, long_max] — the paper's "90% of projects last a month"
        shape.
        """
        if self.random.random() < long_fraction:
            return self.random.randint(short_max + 1, long_max)
        return self.random.randint(1, short_max)

    def value_outside_hole(
        self,
        low: float,
        high: float,
        hole_low: float,
        hole_high: float,
    ) -> float:
        """A uniform value over [low, high] minus (hole_low, hole_high)."""
        left_width = max(0.0, hole_low - low)
        right_width = max(0.0, high - hole_high)
        if left_width + right_width <= 0:
            raise ValueError("hole covers the whole range")
        pick = self.random.uniform(0, left_width + right_width)
        if pick < left_width:
            return low + pick
        return hole_high + (pick - left_width)

    def skewed_category(self, categories: int, skew: float = 1.2) -> int:
        """A Zipf-like category id in [0, categories): the first whose
        running weight total reaches one uniform draw."""
        total, running = _zipf_weights(categories, skew)
        pick = self.random.uniform(0, total)
        return min(bisect.bisect_left(running, pick), categories - 1)

    def string_code(self, prefix: str, number: int, width: int = 6) -> str:
        return f"{prefix}{number:0{width}d}"

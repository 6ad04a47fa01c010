"""Sampled trajectories, with the integrator's step counts when integrated."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .polysys import as_array

@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    min_step: float = float("inf")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Times (finite, strictly increasing) and complex states, one row per time;
    ``meta`` holds the step counts of an integrated trajectory."""

    times: np.ndarray
    states: np.ndarray
    meta: StepStats | None = None

    def __post_init__(self):
        times = as_array(self.times, float, "trajectory times")
        states = as_array(self.states, complex, "trajectory states")
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise ValidationError(
                f"inconsistent trajectory shapes {times.shape} / {states.shape}"
            )
        increasing = np.logical_and.reduce(times[1:] > times[:-1])
        if not np.logical_and.reduce(np.isfinite(times)) or not increasing:
            raise ValidationError("trajectory times must be finite and strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.times.size

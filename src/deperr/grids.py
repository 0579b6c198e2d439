"""Evaluation grids for metric sweeps and classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .exceptions import DomainError
from .numerics import is_integer

SPACINGS = ("linear", "log")
#: most points a GridSpec may hold
MAX_POINTS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """A strictly positive time grid described by endpoints and spacing."""

    start: float
    stop: float
    count: int
    spacing: str = "log"

    def __post_init__(self) -> None:
        if not 0 < self.start < math.inf:
            raise DomainError(
                f"grid.start: must be finite and > 0, got {self.start}"
            )
        if not self.start < self.stop < math.inf:
            raise DomainError(
                "grid.stop: must be finite and exceed grid.start, "
                f"got {self.start}..{self.stop}"
            )
        if not is_integer(self.count) or not 1 <= self.count <= MAX_POINTS:
            raise DomainError(
                f"grid.count: must be an integer in 1..{MAX_POINTS}, "
                f"got {self.count!r}"
            )
        if self.spacing not in SPACINGS:
            raise DomainError(f"grid.spacing: must be one of {SPACINGS}")

    def points(self) -> np.ndarray:
        """The grid's times as a float array, as numpy's spaced grids give
        them (a log grid by np.geomspace's arithmetic), without their set-up."""
        if self.count == 1:
            return np.array([self.start], dtype=float)
        if self.spacing == "linear":
            return np.linspace(self.start, self.stop, self.count)
        with np.errstate(over="ignore"):  # the pinned stop replaces an inf
            pts = 10.0 ** np.linspace(np.log10(self.start), np.log10(self.stop),
                                      self.count)
        pts[0], pts[-1] = self.start, self.stop
        return pts


GridLike = Union[GridSpec, Iterable[float]]


def grid_points(grid: GridLike, minimum: int = 1) -> np.ndarray:
    """Normalize a grid argument to a validated array of time points.

    Points must be strictly increasing and strictly positive.
    """
    if isinstance(grid, GridSpec):
        pts = grid.points()
    else:
        pts = np.asarray(list(grid), dtype=float)
    if pts.ndim != 1 or pts.size < minimum:
        raise DomainError(f"grid needs at least {minimum} point(s)")
    if pts.size and pts[0] <= 0:
        raise DomainError("grid points must be strictly positive")
    if np.any(np.diff(pts) <= 0):
        raise DomainError("grid points must be strictly increasing")
    return pts

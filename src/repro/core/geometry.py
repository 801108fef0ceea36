"""Axis-aligned geometry primitives shared by all search algorithms."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Space:
    """A closed axis-aligned box ``[x0, x1] x [y0, y1]``.

    Used both for the search space holding candidate bottom-left corners
    (ASP locations) and for sub-spaces produced by Split.
    """

    x0: float
    x1: float
    y0: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def is_degenerate(self) -> bool:
        """True when the box has no interior in either dimension."""
        return self.width <= 0.0 or self.height <= 0.0

    def same_extent(self, other: "Space") -> bool:
        return (
            self.x0 == other.x0
            and self.x1 == other.x1
            and self.y0 == other.y0
            and self.y1 == other.y1
        )

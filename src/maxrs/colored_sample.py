"""Sampling solver for colored depth: most distinct colors covering a point."""

from __future__ import annotations

from maxrs.balls import centers_array, colors_array
from maxrs.sample_solver import SolveOutcome, max_colored_sample

__all__ = ["colored_solve"]


def colored_solve(balls, d: int, eps: float, c_sample: float = 4.0, seed: int = 0) -> SolveOutcome | None:
    """Deepest circumsphere sample by number of distinct covering colors."""
    balls = list(balls)
    if not balls:
        return None
    centers = centers_array(balls)
    if centers.shape[1] != d:
        raise ValueError(f"balls have dimension {centers.shape[1]}, expected {d}")
    colors = colors_array(balls)
    return max_colored_sample(centers, colors, d, eps, c_sample, seed)

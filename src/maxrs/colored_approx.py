"""Approximate colored MaxRS by color sampling.

A coarse grid-sample pass estimates the optimum.  When the estimate is
small the exact solver runs on the full input.  Otherwise each color is
kept independently with probability lambda ~ ln(n) / (eps^2 * estimate),
the exact solver runs on the kept disks, and the winning point is
re-scored against the full input so the reported depth is never
optimistic.  With high probability the reported depth is at least
(1 - eps) times the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from maxrs.balls import centers_array, colors_array
from maxrs.colored_exact import ColoredResult, exact_colored_maxrs_arrays
from maxrs.colored_sample import colored_solve
from maxrs.depths import colored_depths
from maxrs.geometry import mix_keys

__all__ = ["ColorSamplePlan", "plan_color_sample", "approx_colored_maxrs"]

_PLAN_SALT = 0xC010


@dataclass(frozen=True)
class ColorSamplePlan:
    """How one approximation run decided to treat the input."""

    estimate: int
    threshold: float
    rate: float
    kept_colors: tuple[int, ...]
    c1: float
    exact_on_full: bool


def plan_color_sample(colors, estimate: int, eps: float, c1: float, seed: int) -> ColorSamplePlan:
    """Keep each distinct color independently with the rate implied by the
    estimate; a small estimate means rate 1, solve the full input."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if c1 <= 0.0:
        raise ValueError(f"c1 must be positive, got {c1}")
    colors = np.asarray(colors, dtype=np.int64)
    n = len(colors)
    threshold = c1 * math.log(max(n, 2)) / (eps * eps)
    uniq = np.unique(colors)
    if estimate <= threshold:
        return ColorSamplePlan(
            estimate=estimate,
            threshold=threshold,
            rate=1.0,
            kept_colors=tuple(int(c) for c in uniq),
            c1=c1,
            exact_on_full=True,
        )
    rate = min(1.0, threshold / estimate)
    # One keyed draw per color: reruns with one seed keep the same colors.
    draws = mix_keys([seed, uniq, _PLAN_SALT])
    keep = (draws.astype(np.float64) / 2.0**64) < rate
    return ColorSamplePlan(
        estimate=estimate,
        threshold=threshold,
        rate=rate,
        kept_colors=tuple(int(c) for c in uniq[keep]),
        c1=c1,
        exact_on_full=rate >= 1.0,
    )


def approx_colored_maxrs(
    balls,
    eps: float,
    c1: float = 8.0,
    seed: int = 0,
    *,
    return_plan: bool = False,
):
    """Approximate max colored depth over colored unit disks in the plane.

    Returns the chosen point together with its exact depth in the full
    input (None for empty input); with return_plan=True, also the sampling
    plan.  With the default c1 the depth is at least (1 - eps) times the
    optimum with high probability.
    """
    balls = list(balls)
    if not balls:
        return None
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    centers = centers_array(balls)
    colors = colors_array(balls)
    if centers.shape[1] != 2:
        raise ValueError("unit-disk solver requires dimension 2")

    coarse = colored_solve(balls, d=2, eps=0.25, seed=seed)
    estimate = 0 if coarse is None else int(coarse.value)

    plan = plan_color_sample(colors, estimate, eps, c1, seed)
    if plan.exact_on_full:
        res = exact_colored_maxrs_arrays(centers, colors)
        return (res, plan) if return_plan else res

    kept = np.isin(colors, np.array(plan.kept_colors, dtype=np.int64))
    if not kept.any():
        # Degenerate draw: no color kept.  Any input point is an honest
        # answer once re-scored against the full input.
        point = (float(centers[0, 0]), float(centers[0, 1]))
    else:
        sub = exact_colored_maxrs_arrays(centers[kept], colors[kept])
        point = sub.point
    value = int(
        colored_depths(np.array([point], dtype=np.float64), centers, colors)[0]
    )
    res = ColoredResult(point=point, value=value)
    return (res, plan) if return_plan else res

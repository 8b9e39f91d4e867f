"""Seeded input generation: point sets, constraints and write points.

Everything the engine receives is made here from the run's ``--seed``
with numpy alone, so the same seed gives the same inputs and the
engine never sees anything but the generated numbers.  Per-round
inputs come from a generator keyed by ``(seed, stream, round)``: round
``r`` is the same whether a run stops after 10 rounds or after 1000,
which is what lets the traced run replay an untraced run exactly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Stream tags keep data, per-round and fixed-set generators apart.
DATA, ROUND, FIXED = 1, 2, 3

#: A query is ``x_d <= offset + coeffs . x[:d-1]`` as plain floats.
Query = Tuple[Tuple[float, ...], float]


def rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, index])


def square(generator: np.random.Generator, n: int) -> np.ndarray:
    """``n`` points uniform in the square ``[-1, 1]^2``."""
    return generator.uniform(-1.0, 1.0, size=(n, 2))


def ball(generator: np.random.Generator, n: int) -> np.ndarray:
    """``n`` points uniform in the unit 3-ball."""
    directions = generator.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = generator.uniform(size=(n, 1)) ** (1.0 / 3.0)
    return directions * radii


def log_uniform(generator: np.random.Generator, low: float,
                high: float) -> float:
    return float(np.exp(generator.uniform(np.log(low), np.log(high))))


def constraint(generator: np.random.Generator, points: np.ndarray,
               selectivity: float) -> Query:
    """A random-slope constraint holding about ``selectivity`` of points.

    Slopes are uniform in ``[-1, 1]`` per free coordinate; the offset is
    the ``selectivity`` quantile of ``x_d - coeffs . x`` over ``points``.
    """
    coeffs = generator.uniform(-1.0, 1.0, size=points.shape[1] - 1)
    residual = points[:, -1] - points[:, :-1] @ coeffs
    offset = float(np.quantile(residual, selectivity))
    return tuple(float(c) for c in coeffs), offset


def covered_point(generator: np.random.Generator, query: Query
                  ) -> Tuple[float, float]:
    """A point of the square strictly below a 2-D constraint's line.

    The write-visibility reads use it: the inserted point is covered by
    the read that follows, by at least 1e-6, far outside the oracle's
    boundary tolerance.
    """
    (slope,), offset = query
    while True:
        x = float(generator.uniform(-1.0, 1.0))
        top = min(1.0, offset + slope * x) - 1e-6
        if top > -1.0:
            return x, float(generator.uniform(-1.0, top))

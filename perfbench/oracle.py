"""The independent answer oracle: a numpy mirror of each live dataset.

The benchmark keeps its own copy of every dataset's point multiset and
applies each acknowledged insert and delete to it.  A read answer is
correct when it equals, as a multiset, the mirror points satisfying
``x_d <= offset + coeffs . x`` evaluated with numpy.  Points within
``EPS`` of the boundary may be reported or not: the library evaluates
the same inequality with its own rounding, and both sides are right
there.  Nothing here calls into the program under test.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from inputs import Query

#: Boundary tolerance, the library's ``EPS``.
EPS = 1e-9


class Mirror:
    """A growable point multiset with one-copy deletes."""

    def __init__(self, points: np.ndarray):
        self.dimension = points.shape[1]
        self._points = np.array(points, dtype=float)
        self._size = len(points)
        self._rows: Dict[Tuple[float, ...], List[int]] = {}
        for row, point in enumerate(self._points):
            self._rows.setdefault(tuple(point.tolist()), []).append(row)

    @property
    def points(self) -> np.ndarray:
        return self._points[:self._size]

    def insert(self, point: Sequence[float]) -> None:
        if self._size == len(self._points):
            grown = np.empty((2 * len(self._points) + 1, self.dimension))
            grown[:self._size] = self._points[:self._size]
            self._points = grown
        self._points[self._size] = point
        self._rows.setdefault(tuple(float(c) for c in point),
                              []).append(self._size)
        self._size += 1

    def delete(self, point: Sequence[float]) -> bool:
        """Remove one copy (swap with the last row); False if absent."""
        rows = self._rows.get(tuple(float(c) for c in point))
        if not rows:
            return False
        row = rows.pop()
        last = self._size - 1
        if row != last:
            moved = tuple(self._points[last].tolist())
            moved_rows = self._rows[moved]
            moved_rows[moved_rows.index(last)] = row
            self._points[row] = self._points[last]
        self._size -= 1
        return True

    def expected(self, query: Query) -> Tuple[np.ndarray, np.ndarray]:
        """(points that must be reported, points on the boundary)."""
        coeffs, offset = query
        points = self.points
        slack = offset + points[:, :-1] @ np.asarray(coeffs) - points[:, -1]
        return points[slack > EPS], points[np.abs(slack) <= EPS]


def _sorted_rows(points: np.ndarray) -> np.ndarray:
    return points[np.lexsort(points.T[::-1])] if len(points) else points


def matches(mirror: Mirror, query: Query, answer) -> bool:
    """True when ``answer`` is a correct multiset answer to ``query``."""
    reported = np.asarray(answer, dtype=float).reshape(-1, mirror.dimension)
    must, boundary = mirror.expected(query)
    if not len(boundary):
        return len(reported) == len(must) and bool(np.array_equal(
            _sorted_rows(reported), _sorted_rows(must)))
    # Rare: some points sit within EPS of the line.  Every must-point
    # is reported; what remains is a sub-multiset of the boundary.
    rest = Counter(map(tuple, reported.tolist()))
    rest.subtract(Counter(map(tuple, must.tolist())))
    allowed = Counter(map(tuple, boundary.tolist()))
    return all(count >= 0 for count in rest.values()) and all(
        count <= allowed[point] for point, count in rest.items() if count)


def self_test() -> Tuple[int, int]:
    """Feed the checker one true and three corrupted answers.

    The corruptions are a dropped point, an extra point from outside the
    constraint and a perturbed coordinate.  Returns (corrupted answers,
    corrupted answers counted as failed), the second -1 when the true
    answer is rejected; a checker that works returns (3, 3).
    """
    generator = np.random.default_rng(7)
    points = generator.uniform(-1.0, 1.0, size=(400, 2))
    mirror = Mirror(points)
    query: Query = ((0.3,), 0.1)
    must, __ = mirror.expected(query)
    truth = [tuple(p) for p in must.tolist()]
    outside = [tuple(p) for p in points.tolist() if tuple(p) not in truth]
    corrupted = [truth[1:], truth + outside[:1],
                 [(truth[0][0], truth[0][1] + 1e-7)] + truth[1:]]
    if not matches(mirror, query, truth):
        return len(corrupted), -1
    return len(corrupted), sum(not matches(mirror, query, answer)
                               for answer in corrupted)

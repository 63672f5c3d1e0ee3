"""One bisection for every one-dimensional root search, in lockstep."""

import math


def bisect(brackets, side, tol=0.0, rtol=0.0):
    """Bisect every bracket {k: (x0, x1)}, ends in either order, to its root.

    Each step makes one call side({k: x}) at the midpoints of all open
    brackets; per key, side returns > 0 where x lies on x0's side of the
    root, < 0 on x1's side, 0 at an exact root and NaN at an invalid point.
    A NaN point is retried once at x0 + (x1 - x0)/4, in one more call; a
    second NaN fails the bracket with root NaN.  A bracket closes, with root
    (x0 + x1)/2, at |x1 - x0| <= tol + rtol*max(|x0|, |x1|) or when its point
    rounds onto an end.  Each key's points depend on its own bracket alone,
    so it gets the same root in any batch.  Returns {k: (root, x0, x1)} in
    the order of brackets, each with the bracket its root was found in.
    """
    open_, done = dict(brackets), {}

    def solve(points):
        """side at the points; narrow brackets, and ones whose point meets an end, close."""
        for k, x in list(points.items()):
            x0, x1 = open_[k]
            narrow = abs(x1 - x0) <= tol + rtol * max(abs(x0), abs(x1))
            if narrow or not min(x0, x1) < x < max(x0, x1):
                done[k] = (0.5 * (x0 + x1), *open_.pop(k))
                del points[k]
        return side(points) if points else {}

    while open_:
        points = {k: 0.5 * (x0 + x1) for k, (x0, x1) in open_.items()}
        values = dict(solve(points))
        retry = {k: x0 + (x1 - x0) / 4 for k, (x0, x1) in open_.items() if math.isnan(values[k])}
        values.update(solve(retry))
        points.update(retry)
        for k, (x0, x1) in list(open_.items()):
            if values[k] > 0:
                open_[k] = (points[k], x1)
            elif values[k] < 0:
                open_[k] = (x0, points[k])
            else:
                done[k] = (points[k] if values[k] == 0 else math.nan, *open_.pop(k))
    return {k: done[k] for k in brackets}

import math

import pytest

from pseudotherm.roots import bisect


def sqrt_side(c):
    """c - x^2, > 0 below the root sqrt(c): brackets run from low to high."""
    return lambda points: {k: c - x * x for k, x in points.items()}


def recording(side):
    """side, with every call's points appended to the returned list; a
    bisection that does not stop fails after 2000 calls."""
    calls = []

    def wrapped(points):
        calls.append(dict(points))
        assert len(calls) <= 2000, "the bisection does not stop"
        return side(points)

    return wrapped, calls


def per_key(fns):
    return recording(lambda points: {k: fns[k](x) for k, x in points.items()})[0]


def test_lockstep_equals_each_bracket_alone():
    fns = {
        "two": lambda x: 2.0 - x * x,
        "three": lambda x: 3.0 - x * x,
        "cube": lambda x: x**3 - 5.0,  # rises through its root: x0 is the high end
        "cos": lambda x: math.cos(x),
    }
    brackets = {"two": (0.0, 2.0), "three": (1.0, 4.0), "cube": (4.0, 0.5), "cos": (0.0, 3.0)}
    for tol, rtol in [(1e-6, 0.0), (0.0, 1e-12), (0.0, 0.0)]:
        together = bisect(brackets, per_key(fns), tol=tol, rtol=rtol)
        for k, br in brackets.items():
            alone = bisect({k: br}, per_key(fns), tol=tol, rtol=rtol)
            assert together[k] == alone[k]
    assert together["two"][0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert together["cube"][0] == pytest.approx(5.0 ** (1 / 3), rel=1e-14)
    assert together["cos"][0] == pytest.approx(math.pi / 2, rel=1e-14)


def test_reversed_bracket_gives_the_mirrored_root():
    # sqrt(2) seen from above: > 0 on x0's side, now the high end
    down, _ = recording(lambda points: {k: x * x - 2.0 for k, x in points.items()})
    root, x0, x1 = bisect({0: (3.0, 1.0)}, down, tol=1e-9)[0]
    up_root, up0, up1 = bisect({0: (1.0, 3.0)}, recording(sqrt_side(2.0))[0], tol=1e-9)[0]
    assert root == up_root
    assert (x1, x0) == (up0, up1)
    assert x0 > math.sqrt(2.0) > x1
    assert abs(x0 - x1) <= 1e-9


@pytest.mark.parametrize("c", [2.0, 2e-300, 7e12])
def test_zero_tolerance_stops_at_adjacent_floats(c):
    side, calls = recording(sqrt_side(c))
    root, x0, x1 = bisect({0: (0.0, max(1.0, c))}, side)[0]
    assert x1 == math.nextafter(x0, math.inf)
    assert x0 * x0 <= c <= x1 * x1
    assert root in (x0, x1)
    # bisection down to one ulp from [0, b] needs at most ~1100 halvings
    assert len(calls) < 1100


def test_stop_rule_is_tol_plus_rtol_times_the_larger_end():
    for tol, rtol in [(1e-3, 0.0), (0.0, 1e-3), (1e-4, 1e-4)]:
        root, x0, x1 = bisect({0: (-10.0, 10.0)}, lambda p: {0: -p[0] + 3.0}, tol, rtol)[0]
        width = abs(x1 - x0)
        assert width <= tol + rtol * max(abs(x0), abs(x1))
        assert 2 * width > tol + rtol * max(abs(x0), abs(x1))  # one step earlier it was open
        assert root == 0.5 * (x0 + x1)


def test_exact_zero_returns_the_hit_point_and_its_bracket():
    side, calls = recording(lambda points: {k: 1.0 - x for k, x in points.items()})
    # midpoints 2, 1: the second lands on the root
    assert bisect({0: (0.0, 4.0)}, side)[0] == (1.0, 0.0, 2.0)
    assert [c[0] for c in calls] == [2.0, 1.0]


def test_closed_bracket_makes_no_call():
    side, calls = recording(sqrt_side(2.0))
    assert bisect({0: (1.5, 1.5), 1: (1.0, 2.0)}, side, tol=2.0) == {
        0: (1.5, 1.5, 1.5),
        1: (1.5, 1.0, 2.0),
    }
    assert calls == []


def test_nan_midpoint_is_retried_at_the_quarter_point():
    def side(points):
        return {k: math.nan if x == 2.0 else 1.5 - x for k, x in points.items()}

    wrapped, calls = recording(side)
    root, x0, x1 = bisect({0: (0.0, 4.0)}, wrapped, tol=1e-9)[0]
    assert calls[:2] == [{0: 2.0}, {0: 1.0}]  # midpoint, then x0 + (x1 - x0)/4
    assert root == pytest.approx(1.5, abs=1e-9)
    assert x0 < 1.5 < x1

    # reversed: the quarter point is a quarter of the way from x0
    wrapped, calls = recording(lambda p: {k: -v for k, v in side(p).items()})
    bisect({0: (4.0, 0.0)}, wrapped, tol=1e-9)
    assert calls[:2] == [{0: 2.0}, {0: 3.0}]


def test_second_nan_fails_the_bracket_with_root_nan():
    def side(points):
        return {
            k: math.nan if k == "bad" and 1.0 <= x <= 3.0 else 2.0 - x
            for k, x in points.items()
        }

    wrapped, calls = recording(side)
    out = bisect({"bad": (0.5, 3.5), "good": (0.0, 3.0)}, wrapped, tol=1e-6)
    root, x0, x1 = out["bad"]
    assert math.isnan(root)
    assert (x0, x1) == (0.5, 3.5)  # the bracket the midpoint 2.0 failed in
    assert calls[:2] == [{"bad": 2.0, "good": 1.5}, {"bad": 1.25}]
    assert all(list(c) == ["good"] for c in calls[2:])
    assert out["good"][0] == pytest.approx(2.0, abs=1e-6)


def test_one_call_per_step_with_every_open_bracket():
    def side(points):
        return {k: math.nan if k == "n" and x == 0.5 else 0.3 - x for k, x in points.items()}

    wrapped, calls = recording(side)
    out = bisect({k: (0.0, 1.0) for k in "abn"}, wrapped, tol=1e-3)
    # a and b halve [0, 1] ten times to width <= 1e-3; n retries its NaN
    # midpoint at 0.25 in step 1, so [0.25, 1] takes eleven steps
    assert [sorted(c) for c in calls] == (
        [["a", "b", "n"], ["n"]] + [["a", "b", "n"]] * 9 + [["n"]]
    )
    assert calls[1] == {"n": 0.25}
    assert out["a"] == out["b"]
    assert abs(out["n"][2] - out["n"][1]) <= 1e-3

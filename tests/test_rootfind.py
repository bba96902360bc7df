"""Bracketing helpers: bisect against the textbook halving loop, zeroin.

``textbook_bisect`` is plain bisection, evaluating f at every midpoint.
``rootfind.bisect`` may answer a midpoint from points it has already
seen, so for any f whose sign changes once, outside a rounding-noise
band narrower than its margin, it must return the same float and raise
the same error.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbound import rootfind
from ptbound.errors import BracketError, OverflowRangeError
from ptbound.rootfind import bisect


def textbook_bisect(f, a, b, *, xtol, fab=None):
    """Bisection root of f on [a, b], f evaluated at every midpoint."""
    fa, fb = fab if fab is not None else (f(a), f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        raise BracketError(f"no sign change on [{a!r}, {b!r}]: f(a)={fa!r}, f(b)={fb!r}")
    while True:
        m = 0.5 * a + 0.5 * b
        if m == a or m == b or (b - a) <= xtol:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if math.isnan(fm):
            raise BracketError(f"f returned NaN at {m!r} during bisection")
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * a + 0.5 * b


def midpoints(f, a, b, **kwargs):
    """The points textbook_bisect evaluates f at, endpoints excluded."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    textbook_bisect(g, a, b, **kwargs)
    return seen if "fab" in kwargs else seen[2:]


SHAPES = {
    "linear": lambda t: t,
    "cubic": lambda t: t * (1.0 + 40.0 * t * t),
    "exp": lambda t: math.expm1(8.0 * t),
    "atan": lambda t: math.atan(50.0 * t),
    "tanh_tail": lambda t: math.tanh(t) * (2.0 + t),
}


def noisy(g, root, band):
    """g with its sign scrambled within band of root: a deterministic
    pseudo-random value of either sign there, as rounding leaves it."""

    def f(x):
        if abs(x - root) > band:
            return g(x)
        return math.sin(hash(x) % 1_000_003 + 0.5) * 1e-3

    return f


roots = st.floats(-50.0, 50.0)
widths = st.floats(1e-4, 2.0)
fractions = st.floats(0.01, 0.99)
xtols = st.sampled_from([1e-13, 1e-11, 1e-10, 1e-8, 1e-6])


class TestMatchesTextbook:
    @settings(max_examples=300)
    @given(st.sampled_from(sorted(SHAPES)), roots, widths, fractions, xtols,
           st.booleans(), st.booleans())
    def test_smooth_monotone(self, shape, root, width, frac, rel_xtol, flip, use_fab):
        sign = -1.0 if flip else 1.0
        f = lambda x: sign * SHAPES[shape]((x - root) / width)
        a = root - frac * width
        b = a + width
        xtol = rel_xtol * max(1.0, abs(a), abs(b))
        kwargs = {"xtol": xtol}
        if use_fab:
            kwargs["fab"] = (f(a), f(b))
        assert bisect(f, a, b, **kwargs) == textbook_bisect(f, a, b, **kwargs)

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(SHAPES)), roots, st.floats(0.1, 0.9),
           st.sampled_from([1e-13, 1e-11, 1e-10, 1e-8]), st.floats(0.0, 64.0), st.booleans())
    def test_noise_band(self, shape, root, frac, rel_xtol, band_xtols, use_fab):
        width = 0.05
        a = root - frac * width
        b = a + width
        xtol = rel_xtol * max(1.0, abs(a), abs(b))
        g = lambda x: SHAPES[shape]((x - root) / width)
        f = noisy(g, root, band_xtols * xtol)
        kwargs = {"xtol": xtol}
        if use_fab:
            kwargs["fab"] = (f(a), f(b))
        assert bisect(f, a, b, **kwargs) == textbook_bisect(f, a, b, **kwargs)

    def test_nan_at_visited_midpoint(self):
        # The textbook loop's last midpoint lies next to the root, where
        # any bisection must look at f itself.
        g = SHAPES["cubic"]
        last = midpoints(g, -0.02, 0.03, xtol=1e-10)[-1]
        f = lambda x: math.nan if x == last else g(x)
        with pytest.raises(BracketError, match="NaN"):
            textbook_bisect(f, -0.02, 0.03, xtol=1e-10)
        with pytest.raises(BracketError, match="NaN"):
            bisect(f, -0.02, 0.03, xtol=1e-10)

    def test_nan_endpoint(self):
        with pytest.raises(BracketError):
            bisect(math.sin, -1.0, 1.0, xtol=1e-10, fab=(math.nan, 1.0))

    def test_exact_zero_at_midpoint(self):
        # 0.375 is the third midpoint of [0, 1]; f is exactly 0 there.
        f = lambda x: (x - 0.375) * (1.0 + x * x)
        assert textbook_bisect(f, 0.0, 1.0, xtol=1e-10) == 0.375
        assert bisect(f, 0.0, 1.0, xtol=1e-10) == 0.375

    def test_zero_endpoints(self):
        assert bisect(math.sin, 0.0, 1.0, xtol=1e-10) == 0.0
        assert bisect(math.sin, -1.0, 0.0, xtol=1e-10, fab=(-1.0, 0.0)) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bisect(math.cos, -1.0, 1.0, xtol=1e-10)

    @pytest.mark.parametrize("a, b, root, xtol", [
        (-1e300, 1e300, 1.0, 1e-12),
        (0.0, 1e300, 2.5e-7, 1e-15),
        (-1e200, 1e-200, -7.0, 1e-9),
        (-1e300, 1e300, 3e250, 1e238),
    ])
    def test_wide_bracket_halves_to_xtol(self, a, b, root, xtol):
        # About 1,040 halvings take [-1e300, 1e300] down to 1e-12; no cap
        # on the steps may stop the loop short of the root.
        f = lambda x: x - root
        value = bisect(f, a, b, xtol=xtol)
        assert abs(value - root) <= xtol
        assert value == textbook_bisect(f, a, b, xtol=xtol)

    @pytest.mark.parametrize(
        "a, b, root", [(1e308, 1.7e308, 1.6e308), (-1.7e308, -1e308, -1.6e308)]
    )
    def test_midpoint_sum_past_the_double_range(self, a, b, root):
        # a + b overflows; the midpoint a/2 + b/2 stays inside the bracket.
        f = lambda x: x - root
        value = bisect(f, a, b, xtol=1e-12)
        assert value == root
        assert value == textbook_bisect(f, a, b, xtol=1e-12)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (-1.0, math.nan), (-math.inf, math.inf)])
    def test_nonfinite_end(self, a, b):
        # The midpoints of such a bracket are NaN, where a step f answers
        # with a sign would never end the loop.
        with pytest.raises(BracketError, match="finite"):
            bisect(lambda x: -1.0 if x < 0.0 else 1.0, a, b, xtol=1e-10, fab=(-1.0, 1.0))

    @pytest.mark.parametrize("a, b", [(1.0, -1.0), (-1e-11, 2e-11), (-1.0, 1.0 + 1e-15)])
    def test_reversed_or_narrow_bracket(self, a, b):
        assert bisect(math.sin, a, b, xtol=1e-10) == textbook_bisect(math.sin, a, b, xtol=1e-10)

    @pytest.mark.parametrize("xtol", [0.0, -1e-10, 1e-300, 1e-17, math.nan])
    def test_degenerate_tolerance(self, xtol):
        # f is never exactly 0, and a tolerance below the ulps of the
        # bracket must not leave Brent's steps stuck on one point.
        calls = []

        def f(x):
            calls.append(x)
            assert len(calls) < 1000
            return math.atan(50.0 * (x - math.pi)) + 1e-17

        assert bisect(f, 3.1, 3.2, xtol=xtol) == textbook_bisect(f, 3.1, 3.2, xtol=xtol)

    @pytest.mark.parametrize("misbehave", ["raise", "nan", "zero", "negzero", "inf", "neginf"])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_f_fails_off_the_textbook_path(self, misbehave, at):
        # f fails at the at-th point it is asked for that the textbook loop
        # never evaluates; a bisection of the same bracket must not notice.
        g = SHAPES["exp"]
        path = {-0.02, 0.03, *midpoints(g, -0.02, 0.03, xtol=1e-10)}
        others = []

        def f(x):
            if x not in path and x not in others:
                others.append(x)
            if others[at:at + 1] == [x]:
                if misbehave == "raise":
                    raise OverflowRangeError(f"no value at {x!r}")
                return {"nan": math.nan, "zero": 0.0, "negzero": -0.0, "inf": math.inf,
                        "neginf": -math.inf}[misbehave]
            return g(x)

        assert bisect(f, -0.02, 0.03, xtol=1e-10) == textbook_bisect(g, -0.02, 0.03, xtol=1e-10)


class TestZeroin:
    def test_zeroin(self):
        # A mismatch that grows exponentially away from its root, as the
        # tail mismatch does: every trial stays strictly inside the
        # bracket, and the bracket reaches 2*tol in far fewer trials than
        # the 40 halvings bisection needs.
        root, tol = math.pi, 1e-12
        g = lambda x: math.exp(8.0 * (root - x)) - 1.0
        bracket = [1.0, 5.0]
        trials = []

        def f(x):
            assert bracket[0] < x < bracket[1]
            trials.append(x)
            bracket[x > root] = x
            return g(x)

        rootfind.zeroin(f, 1.0, g(1.0), 5.0, g(5.0), tol)
        assert bracket[1] - bracket[0] <= 2.0 * tol
        assert len(trials) <= 20

    def test_zeroin_stops_without_value(self):
        trials = []
        rootfind.zeroin(lambda x: trials.append(x), 1.0, 1.0, 5.0, -1.0, 1e-12)
        assert len(trials) == 1 and 1.0 < trials[0] < 5.0


class TestEvaluations:
    @pytest.mark.parametrize("g", [
        lambda t: t + 0.3 * t * t,
        lambda t: math.expm1(t),
        lambda t: math.expm1(2.0 * t),
        lambda t: math.tanh(t) * (2.0 + t),
    ])
    def test_smooth_simple_root(self, g):
        # Plain bisection of a 0.05-wide scan cell to 1e-10 evaluates f at
        # 29 midpoints; the squeeze leaves at most 20 evaluations.
        rng = random.Random(7)
        for _ in range(200):
            root, frac = rng.uniform(-50.0, 50.0), rng.uniform(0.01, 0.99)
            a = root - frac * 0.05
            b = a + 0.05
            calls = []

            def f(x):
                calls.append(x)
                return g((x - root) / 0.05)

            fab = (f(a), f(b))
            calls.clear()
            value = bisect(f, a, b, xtol=1e-10, fab=fab)
            assert len(calls) <= 20, (root, frac, len(calls))
            assert value == textbook_bisect(f, a, b, xtol=1e-10, fab=fab)

    @pytest.mark.parametrize("a", [12.3, 12.33, 12.34])
    def test_zero_trial_is_recorded(self, a):
        # zeroin's first secant trial on a linear f is its root, where f is
        # exactly 0.  f has the bracket ends' signs half a margin either
        # side of it, so the squeeze keeps those two points as its window
        # and the bisection evaluates only the midpoints near them: 18
        # calls where ending the squeeze unrecorded took 32.
        calls = []

        def f(x):
            calls.append(x)
            return (x - 12.345) / 0.05

        value = bisect(f, a, a + 0.05, xtol=1e-10)
        assert 12.345 in calls
        assert len(calls) <= 18
        assert value == textbook_bisect(f, a, a + 0.05, xtol=1e-10)


@settings(max_examples=300)
@given(
    lo=st.floats(-1e6, 1e6), width=st.floats(1e-8, 1e7), n=st.integers(2, 400),
)
def test_uniform_grid_is_the_stepping_loop(lo, width, n):
    """The scans' nodes, and the CLI's linear grids, are the loop
    lo + i * step bit for bit."""
    hi = lo + width
    step = (hi - lo) / (n - 1)
    assert rootfind.uniform_grid(lo, hi, n).tolist() == [lo + i * step for i in range(n)]

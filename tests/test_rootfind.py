"""Bracketing helpers: bisect against the textbook halving loop.

``textbook_bisect`` is plain bisection written out on its own.
``rootfind.bisect`` must evaluate f at the same points, in the same
order, return the same float and raise the same error.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbound import rootfind
from ptbound.errors import BracketError, OverflowRangeError
from ptbound.rootfind import bisect


def textbook_bisect(f, a, b, *, xtol, fab):
    """Bisection root of f on [a, b] from fab = (f(a), f(b)), f evaluated
    at every midpoint."""
    fa, fb = fab
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


def ends(f, a, b):
    return f(a), f(b)


def midpoints(f, a, b, *, xtol):
    """The points textbook_bisect evaluates f at, given f's end values."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    textbook_bisect(g, a, b, xtol=xtol, fab=ends(f, a, b))
    return seen


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
    @given(st.sampled_from(sorted(SHAPES)), roots, widths, fractions, xtols, st.booleans())
    def test_smooth_monotone(self, shape, root, width, frac, rel_xtol, flip):
        sign = -1.0 if flip else 1.0
        f = lambda x: sign * SHAPES[shape]((x - root) / width)
        a = root - frac * width
        b = a + width
        kwargs = {"xtol": rel_xtol * max(1.0, abs(a), abs(b)), "fab": ends(f, a, b)}
        assert bisect(f, a, b, **kwargs) == textbook_bisect(f, a, b, **kwargs)

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(SHAPES)), roots, st.floats(0.1, 0.9),
           st.sampled_from([1e-13, 1e-11, 1e-10, 1e-8]), st.floats(0.0, 64.0))
    def test_noise_band(self, shape, root, frac, rel_xtol, band_xtols):
        width = 0.05
        a = root - frac * width
        b = a + width
        xtol = rel_xtol * max(1.0, abs(a), abs(b))
        g = lambda x: SHAPES[shape]((x - root) / width)
        f = noisy(g, root, band_xtols * xtol)
        kwargs = {"xtol": xtol, "fab": ends(f, a, b)}
        assert bisect(f, a, b, **kwargs) == textbook_bisect(f, a, b, **kwargs)

    def test_nan_at_visited_midpoint(self):
        # The textbook loop's last midpoint lies next to the root, where
        # any bisection must look at f itself.
        g = SHAPES["cubic"]
        last = midpoints(g, -0.02, 0.03, xtol=1e-10)[-1]
        f = lambda x: math.nan if x == last else g(x)
        fab = ends(f, -0.02, 0.03)
        with pytest.raises(BracketError, match="NaN"):
            textbook_bisect(f, -0.02, 0.03, xtol=1e-10, fab=fab)
        with pytest.raises(BracketError, match="NaN"):
            bisect(f, -0.02, 0.03, xtol=1e-10, fab=fab)

    def test_nan_endpoint(self):
        with pytest.raises(BracketError):
            bisect(math.sin, -1.0, 1.0, xtol=1e-10, fab=(math.nan, 1.0))

    def test_exact_zero_at_midpoint(self):
        # 0.375 is the third midpoint of [0, 1]; f is exactly 0 there.
        f = lambda x: (x - 0.375) * (1.0 + x * x)
        assert textbook_bisect(f, 0.0, 1.0, xtol=1e-10, fab=ends(f, 0.0, 1.0)) == 0.375
        assert bisect(f, 0.0, 1.0, xtol=1e-10, fab=ends(f, 0.0, 1.0)) == 0.375

    def test_zero_endpoints(self):
        assert bisect(math.sin, 0.0, 1.0, xtol=1e-10, fab=ends(math.sin, 0.0, 1.0)) == 0.0
        assert bisect(math.sin, -1.0, 0.0, xtol=1e-10, fab=(-1.0, 0.0)) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bisect(math.cos, -1.0, 1.0, xtol=1e-10, fab=ends(math.cos, -1.0, 1.0))

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
        value = bisect(f, a, b, xtol=xtol, fab=ends(f, a, b))
        assert abs(value - root) <= xtol
        assert value == textbook_bisect(f, a, b, xtol=xtol, fab=ends(f, a, b))

    @pytest.mark.parametrize(
        "a, b, root", [(1e308, 1.7e308, 1.6e308), (-1.7e308, -1e308, -1.6e308)]
    )
    def test_midpoint_sum_past_the_double_range(self, a, b, root):
        # a + b overflows; the midpoint a/2 + b/2 stays inside the bracket.
        f = lambda x: x - root
        value = bisect(f, a, b, xtol=1e-12, fab=ends(f, a, b))
        assert value == root
        assert value == textbook_bisect(f, a, b, xtol=1e-12, fab=ends(f, a, b))

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (-1.0, math.nan), (-math.inf, math.inf)])
    def test_nonfinite_end(self, a, b):
        # The midpoints of such a bracket are NaN, where a step f answers
        # with a sign would never end the loop.
        with pytest.raises(BracketError, match="finite"):
            bisect(lambda x: -1.0 if x < 0.0 else 1.0, a, b, xtol=1e-10, fab=(-1.0, 1.0))

    @pytest.mark.parametrize("a, b", [(1.0, -1.0), (-1e-11, 2e-11), (-1.0, 1.0 + 1e-15)])
    def test_reversed_or_narrow_bracket(self, a, b):
        kwargs = {"xtol": 1e-10, "fab": ends(math.sin, a, b)}
        assert bisect(math.sin, a, b, **kwargs) == textbook_bisect(math.sin, a, b, **kwargs)

    @pytest.mark.parametrize("xtol", [0.0, -1e-10, 1e-300, 1e-17, math.nan])
    def test_degenerate_tolerance(self, xtol):
        # f is never exactly 0, and a tolerance below the ulps of the
        # bracket must not leave the halving stuck on one point.
        calls = []

        def f(x):
            calls.append(x)
            assert len(calls) < 1000
            return math.atan(50.0 * (x - math.pi)) + 1e-17

        kwargs = {"xtol": xtol, "fab": ends(f, 3.1, 3.2)}
        assert bisect(f, 3.1, 3.2, **kwargs) == textbook_bisect(f, 3.1, 3.2, **kwargs)

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

        kwargs = {"xtol": 1e-10, "fab": ends(g, -0.02, 0.03)}
        assert bisect(f, -0.02, 0.03, **kwargs) == textbook_bisect(g, -0.02, 0.03, **kwargs)


class TestEvaluations:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_evaluates_the_textbook_midpoints(self, shape):
        # Given the ends' values, f is evaluated at each midpoint of the
        # textbook loop, in its order, and nowhere else.
        g = SHAPES[shape]
        rng = random.Random(7)
        for _ in range(40):
            root, frac = rng.uniform(-50.0, 50.0), rng.uniform(0.01, 0.99)
            a = root - frac * 0.05
            b = a + 0.05
            f = lambda x: g((x - root) / 0.05)
            calls = []

            def traced(x):
                calls.append(x)
                return f(x)

            bisect(traced, a, b, xtol=1e-10, fab=ends(f, a, b))
            assert calls == midpoints(f, a, b, xtol=1e-10), (root, frac)


@settings(max_examples=300)
@given(
    lo=st.floats(-1e6, 1e6), width=st.floats(1e-8, 1e7), n=st.integers(2, 400),
)
def test_uniform_grid_is_the_stepping_loop(lo, width, n):
    """The scans' nodes, and the CLI's linear grids, are the loop
    lo + i * step bit for bit."""
    hi = lo + width
    step = (hi - lo) / (n - 1)
    assert rootfind.uniform_grid(lo, hi, n) == [lo + i * step for i in range(n)]


@pytest.mark.parametrize("a, b, n", [
    (-1.7e308, 1.7e308, 5), (-sys.float_info.max, sys.float_info.max, 1025), (-1e308, 9e307, 2),
])
def test_uniform_grid_past_the_double_range(a, b, n):
    """Where b - a overflows, the nodes stay finite and run from a to b,
    with no overflow warning (once [nan, inf, inf, inf, inf] for the first)."""
    xs = rootfind.uniform_grid(a, b, n)
    assert all(map(math.isfinite, xs))
    assert xs[0] == a and xs[-1] == b
    assert xs == sorted(xs)

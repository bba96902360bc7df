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


def final_cell(a, b, xtol, x):
    """The cell the textbook halving of [a, b] to xtol ends in when every
    midpoint at or left of x reads as below the root."""
    while True:
        m = 0.5 * a + 0.5 * b
        if m == a or m == b or (b - a) <= xtol:
            return a, b
        if x < m:
            b = m
        else:
            a = m


GUESSES = ("below", "a", "b", "above", "lattice", "zero", "inside")


def draw_guess(where, u, f, a, b, root, xtol):
    """A guess of one kind: outside the bracket, at an end, on a midpoint
    of the textbook path, at f's exact zero, or anywhere inside."""
    path = midpoints(f, a, b, xtol=xtol)
    return {
        "below": a - u * (b - a), "a": a, "b": b, "above": b + u * (b - a),
        "lattice": path[int(u * len(path))] if 0 <= u < 1 and path else a,
        "zero": root, "inside": a + u * (b - a),
    }[where]


class TestGuess:
    """bisect(..., guess=g): the halving toward g without f, then f at
    the two ends of the final cell, gives the textbook value under the
    monotone-sign condition, and otherwise halves as the textbook does."""

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(SHAPES)), roots, widths, fractions, xtols, st.booleans(),
           st.sampled_from(GUESSES), st.floats(0.0, 1.0))
    def test_smooth_monotone(self, shape, root, width, frac, rel_xtol, flip, where, u):
        # f's sign is the sign of x - root, so it changes once.
        sign = -1.0 if flip else 1.0
        f = lambda x: sign * SHAPES[shape]((x - root) / width)
        a = root - frac * width
        b = a + width
        kwargs = {"xtol": rel_xtol * max(1.0, abs(a), abs(b)), "fab": ends(f, a, b)}
        guess = draw_guess(where, u, f, a, b, root, kwargs["xtol"])
        assert bisect(f, a, b, guess=guess, **kwargs) == textbook_bisect(f, a, b, **kwargs)

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(SHAPES)), roots, st.floats(0.1, 0.9),
           st.sampled_from([1e-13, 1e-11, 1e-10, 1e-8]), st.floats(0.0, 0.49),
           st.sampled_from(GUESSES), st.floats(0.0, 1.0))
    def test_noise_band_narrower_than_a_cell(self, shape, root, frac, rel_xtol, band_cells,
                                             where, u):
        # Signs scrambled on an interval about the root narrower than the
        # final cells: the textbook value whatever the guess.
        width = 0.05
        a = root - frac * width
        b = a + width
        xtol = rel_xtol * max(1.0, abs(a), abs(b))
        lo, hi = final_cell(a, b, xtol, root)
        g = lambda x: SHAPES[shape]((x - root) / width)
        f = noisy(g, root, band_cells * (hi - lo))
        kwargs = {"xtol": xtol, "fab": ends(f, a, b)}
        guess = draw_guess(where, u, f, a, b, root, xtol)
        assert bisect(f, a, b, guess=guess, **kwargs) == textbook_bisect(f, a, b, **kwargs)

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(SHAPES)), roots, st.floats(0.1, 0.9),
           st.sampled_from([1e-13, 1e-11, 1e-10, 1e-8]), st.floats(0.0, 64.0),
           st.sampled_from(GUESSES), st.floats(0.0, 1.0))
    def test_otherwise_halves(self, shape, root, frac, rel_xtol, band_cells, where, u):
        # Any band, up to 64 cells wide: f is taken at the ends of the
        # guess's final cell that are not a or b.  Ends that straddle
        # with fa's sign on the left give the cell's midpoint; any others
        # go on to the textbook's midpoints and value.
        width = 0.05
        a = root - frac * width
        b = a + width
        xtol = rel_xtol * max(1.0, abs(a), abs(b))
        lo, hi = final_cell(a, b, xtol, root)
        g = lambda x: SHAPES[shape]((x - root) / width)
        f = noisy(g, root, band_cells * (hi - lo))
        fab = ends(f, a, b)
        guess = draw_guess(where, u, f, a, b, root, xtol)
        lo, hi = final_cell(a, b, xtol, guess)
        calls = []

        def traced(x):
            calls.append(x)
            return f(x)

        value = bisect(traced, a, b, xtol=xtol, fab=fab, guess=guess)
        confirming = [x for x, end in ((lo, a), (hi, b)) if x != end]
        assert calls[: len(confirming)] == confirming
        f_lo, f_hi = (fab[0] if lo == a else f(lo)), (fab[1] if hi == b else f(hi))
        if (f_lo < 0.0 < f_hi) if fab[0] < 0.0 else (f_hi < 0.0 < f_lo):
            assert (value, calls) == (0.5 * lo + 0.5 * hi, confirming)
        else:
            assert calls[len(confirming):] == midpoints(f, a, b, xtol=xtol)
            assert value == textbook_bisect(f, a, b, xtol=xtol, fab=fab)

    @settings(max_examples=200)
    @given(st.sampled_from(sorted(SHAPES)), roots, st.floats(0.1, 0.9),
           st.sampled_from([1e-13, 1e-10, 1e-8]), st.floats(0.0, 64.0))
    def test_without_guess_evaluates_the_textbook_midpoints(self, shape, root, frac, rel_xtol,
                                                            band_cells):
        width = 0.05
        a = root - frac * width
        b = a + width
        xtol = rel_xtol * max(1.0, abs(a), abs(b))
        lo, hi = final_cell(a, b, xtol, root)
        f = noisy(lambda x: SHAPES[shape]((x - root) / width), root, band_cells * (hi - lo))
        calls = []

        def traced(x):
            calls.append(x)
            return f(x)

        bisect(traced, a, b, xtol=xtol, fab=ends(f, a, b), guess=None)
        assert calls == midpoints(f, a, b, xtol=xtol)

    def test_cell_ends_at_the_bracket_ends(self):
        # A guess outside the bracket ends in its first or last cell, one
        # of whose ends is a or b: fab is used there, and f at the other
        # end has the sign fab gives that end, so the halving runs.
        f = lambda x: x - 0.3
        kwargs = {"xtol": 1e-10, "fab": (-0.3, 0.7)}
        path = midpoints(f, 0.0, 1.0, xtol=1e-10)
        for guess, confirming in ((-5.0, 1), (5.0, 1), (0.3, 2)):
            calls = []
            value = bisect(lambda x: calls.append(x) or f(x), 0.0, 1.0, guess=guess, **kwargs)
            assert value == textbook_bisect(f, 0.0, 1.0, **kwargs)
            assert len(calls) == confirming + (0 if guess == 0.3 else len(path))

    @pytest.mark.parametrize("misbehave", ["nan", "zero"])
    def test_zero_or_nan_at_a_confirming_end_halves(self, misbehave):
        # f is 0 or NaN at the guess's cell's left end, where the
        # textbook loop never looks: the halving runs and gives its value.
        g = SHAPES["exp"]
        lo, _ = final_cell(-0.02, 0.03, 1e-10, 0.01)
        f = lambda x: (math.nan if misbehave == "nan" else 0.0) if x == lo else g(x)
        kwargs = {"xtol": 1e-10, "fab": ends(g, -0.02, 0.03)}
        assert lo not in midpoints(g, -0.02, 0.03, xtol=1e-10)
        value = bisect(f, -0.02, 0.03, guess=0.01, **kwargs)
        assert value == textbook_bisect(g, -0.02, 0.03, **kwargs)


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

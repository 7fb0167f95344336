"""``_invert_monotone`` against one bisection level per call, bit for bit.

The solver predicts where each root lies, evaluates every midpoint of the
bisection path toward it in one call of the function, and keeps the levels
where the path agrees with the decisions that one-level bisection takes.
``one_level`` below is that one-level bisection, written out step by step;
every test compares the two with ``==``: values, and the messages of the
errors they raise.  The solver never calls the function more often.  Also
here: the single-column ``means._wsum`` against its row loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_solver_kernels import Counted

from cdt.errors import DomainError
from cdt.generators import _MAX_LEVELS, _PATH_ELEMENTS, _first, _invert_monotone
from cdt.means import _wsum


def one_level(fun, target, lo, hi, tol):
    """Bisection of fun(m) = target with one midpoint per element per call."""

    def values(x):
        y = np.asarray(fun(x), dtype=float)
        if np.count_nonzero(bad := np.isnan(y)):
            raise DomainError(f"the function to invert is NaN at {_first(x, bad)!r}")
        return y

    flo, fhi = values(lo), values(hi)
    increasing = fhi >= flo
    target = np.minimum(np.maximum(target, np.minimum(flo, fhi)), np.maximum(flo, fhi))
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for _ in range(_MAX_LEVELS):
        active = (b - a) > tol * np.maximum(1.0, np.maximum(b, -a))
        if not np.count_nonzero(active):
            break
        m = 0.5 * (a + b)
        raise_a = active & ((values(m) < target) == increasing)
        a, b = np.where(raise_a, m, a), np.where(active ^ raise_a, m, b)
    out = 0.5 * (a + b)
    return float(out) if out.ndim == 0 else out


def outcome(solver, *args):
    """The solver's value (shape and bytes), or its error type and message."""
    try:
        out = np.asarray(solver(*args))
    except DomainError as exc:
        return "error", type(exc).__name__, str(exc)
    return "value", out.shape, out.tobytes()


def same(*args):
    assert outcome(_invert_monotone, *args) == outcome(one_level, *args)


#: strictly monotone on (0, inf), increasing and decreasing
FUNS = {
    "cube": lambda x: x**3 + x,
    "log": np.log,
    "exp-": lambda x: np.exp(-np.sqrt(x)),
    "reciprocal": lambda x: 1.0 / x,
    "sqrt-": lambda x: -np.sqrt(x),
}

#: comparisons that are not monotone near the root: the noise term's slope
#: exceeds the trend's below a relative scale of about 1e-7 to 1e-10
NOISY = {
    "sin": lambda x: x + 1e-6 * x * np.sin(1e13 * x),
    "steps": lambda x: np.floor(x * 1e9) + 5.0 * np.sin(x * 1e12),
    "noise": lambda x: np.sin(x * 1e15),
}


@st.composite
def problems(draw, funs):
    """(fun, targets, lo, hi): up to 6 brackets of magnitudes 1e-3..1e6 and
    relative widths 0 or 1e-15..1, so that elements stop at levels from 0
    to about 50, and targets from slightly outside to inside each bracket."""
    n = draw(st.integers(1, 6))
    base = np.array(draw(st.lists(st.floats(-3.0, 6.0), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.sampled_from([-np.inf, *range(-15, 1)]), min_size=n, max_size=n)))
    t = np.array(draw(st.lists(st.floats(-0.1, 1.1), min_size=n, max_size=n)))
    lo = 10.0**base
    hi = lo * (1.0 + 10.0**width)
    fun = funs[draw(st.sampled_from(sorted(funs)))]
    with np.errstate(all="ignore"):
        target = fun(lo + t * (hi - lo))
    return fun, target, lo, hi


@settings(deadline=None, max_examples=300)
@given(problem=problems(FUNS), tol=st.sampled_from([1e-12, 1e-14]))
def test_monotone_functions(problem, tol):
    same(*problem, tol)


@settings(deadline=None, max_examples=300)
@given(problem=problems(NOISY), tol=st.sampled_from([1e-12, 1e-14, 1e-16]))
def test_noise_dominated_functions(problem, tol):
    same(*problem, tol)


@settings(deadline=None, max_examples=300)
@given(problem=problems({**FUNS, **NOISY}), tol=st.sampled_from([1e-12, 1e-14, 1e-16]))
def test_no_more_calls_than_one_level(problem, tol):
    fun, target, lo, hi = problem
    counted, ref = Counted(fun), Counted(fun)
    _invert_monotone(counted, target, lo, hi, tol)
    one_level(ref, target, lo, hi, tol)
    assert counted.calls <= ref.calls


@settings(deadline=None, max_examples=300)
@given(problem=problems(NOISY), tol=st.sampled_from([1e-12, 1e-14, 1e-16]))
def test_noise_costs_points_linear_in_the_levels(problem, tol):
    # After a path that keeps c levels, the next runs at most 2c + 2: over
    # L levels the rounds after the first evaluate at most 4L points, where
    # a path run to the tolerance every round would cost O(L^2).
    fun, target, lo, hi = problem
    counted, ref = Counted(fun), Counted(fun)
    _invert_monotone(counted, target[:1], lo[:1], hi[:1], tol)
    one_level(ref, target[:1], lo[:1], hi[:1], tol)
    assert counted.points <= 2 + _MAX_LEVELS + 4 * (ref.calls - 2)


@settings(deadline=None, max_examples=100)
@given(problem=problems(FUNS), tol=st.sampled_from([1e-12, 1e-14]))
def test_one_element_as_a_float(problem, tol):
    fun, target, lo, hi = problem
    got = _invert_monotone(fun, float(target[0]), float(lo[0]), float(hi[0]), tol)
    assert isinstance(got, float)
    assert got == one_level(fun, float(target[0]), float(lo[0]), float(hi[0]), tol)


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_the_level_cap(tol):
    # No bracket gets narrower than adjacent floats, so no element stops
    # before the cap.  The first round's paths run 200 levels; the secant
    # puts the second element's root at 0.1 + 9e-17, so its path leaves
    # one-level bisection's at level 57.  Its next path runs 2 * 57 + 2
    # levels, and the third the last 27.
    lo, hi = np.array([1.0, -3.0, 1e-8, 5.0]), np.array([2.0, 7.0, 1e-7, 5.0 + 2.0**-48])
    target = np.array([math.pi, 0.1, 3e-8, 5.0 + 2.0**-50])
    fun, ref = Counted(lambda x: x), Counted(lambda x: x)
    assert _invert_monotone(fun, target, lo, hi, tol).tobytes() == one_level(ref, target, lo, hi, tol).tobytes()
    assert (ref.calls, fun.calls) == (2 + _MAX_LEVELS, 2 + 3)


@pytest.mark.parametrize("n, rounds", [(_PATH_ELEMENTS, 4), (_PATH_ELEMENTS + 1, 47)])
def test_many_elements_take_one_level_per_call(n, rounds):
    # Up to _PATH_ELEMENTS = 32 elements go along predicted paths, in rounds
    # of 47, 6, 14 and 25 levels: the furthest element keeps 2 levels of the
    # first, so the second runs 2 * 2 + 2, and so on.  One more element
    # takes one level per call.
    lo = np.linspace(1.0, 2.0, n)
    target = FUNS["cube"](lo + 0.3)
    fun, ref = Counted(FUNS["cube"]), Counted(FUNS["cube"])
    assert _invert_monotone(fun, target, lo, lo + 1.0, 1e-14).tobytes() == one_level(
        ref, target, lo, lo + 1.0, 1e-14).tobytes()
    assert (ref.calls, fun.calls) == (2 + 47, 2 + rounds)  # 47 levels


def test_shapes():
    lo, hi = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[2.0, 3.0], [4.0, 5.0]])
    same(FUNS["cube"], FUNS["cube"](lo + 0.3), lo, hi, 1e-14)  # 2-D
    same(FUNS["cube"], np.array([2.5, 3.0, 9.0]), 1.0, 2.0, 1e-14)  # targets over one bracket
    same(FUNS["log"], 0.5, np.array([1.0, 1.5]), 2.0, 1e-14)  # brackets over one target
    same(FUNS["log"], np.zeros(0), np.zeros(0), np.zeros(0), 1e-14)


# --------------------------------------------------------------- faults


def nan_at(c, fn=lambda x: x):
    return lambda x: np.where(x == c, np.nan, fn(x))


def test_a_nan_off_the_path_is_not_seen():
    # 1.5 is off the path to 0.4 in [0, 2], which goes down at 1.0; the
    # secant through the ends puts the root at 0.4, so no round meets it
    # either, and the calls are those of a clean solve.
    fun = Counted(nan_at(1.5))
    assert _invert_monotone(fun, 0.4, 0.0, 2.0, 1e-14) == one_level(lambda x: x, 0.4, 0.0, 2.0, 1e-14)
    calls_clean = Counted(lambda x: x)
    _invert_monotone(calls_clean, 0.4, 0.0, 2.0, 1e-14)
    assert fun.calls == calls_clean.calls


def test_a_nan_on_a_predicted_path_only_is_replayed():
    # For x^3 = 0.064 in [0, 2] the secant puts the root at 0.016, not 0.4:
    # the first round's path goes down at 0.25, where one-level bisection
    # goes up, and on to 0.125, a NaN one-level bisection never meets.
    # The solve starts again at one level per call: 48 more calls.
    cube = lambda x: x**3
    fun, ref = Counted(nan_at(0.125, cube)), Counted(cube)
    assert _invert_monotone(fun, 0.064, 0.0, 2.0, 1e-14) == one_level(ref, 0.064, 0.0, 2.0, 1e-14)
    assert (ref.calls, fun.calls) == (2 + 48, 2 + 1 + 48)

    def raising(x):
        if np.any(np.asarray(x) == 0.125):
            raise DomainError(f"undefined at {0.125!r}")
        return cube(x)

    assert outcome(_invert_monotone, raising, 0.064, 0.0, 2.0, 1e-14)[0] == "value"
    same(raising, 0.064, 0.0, 2.0, 1e-14)


def test_a_nan_on_the_path_raises_the_one_level_error():
    # 0.2003173828125 is the tenth midpoint on the way to 0.2 in [0, 1.5]:
    # the first round's path meets it, and the replay raises where
    # one-level bisection does.
    args = (nan_at(0.2003173828125), np.array([0.4, 0.2]), 0.0, np.array([2.0, 1.5]), 1e-14)
    message = "the function to invert is NaN at 0.2003173828125"
    assert outcome(_invert_monotone, *args) == ("error", "DomainError", message)
    same(*args)


def test_a_raising_fun_raises_the_one_level_error():
    def fun(x):
        if np.any(np.asarray(x) == 0.5):
            raise DomainError(f"undefined at {0.5!r}")
        return x

    assert outcome(_invert_monotone, fun, 0.2, 0.0, 2.0, 1e-14) == ("error", "DomainError", "undefined at 0.5")
    same(fun, 0.2, 0.0, 2.0, 1e-14)
    same(fun, 1.2, 0.0, 2.0, 1e-14)  # 0.5 is not on the path


@settings(deadline=None, max_examples=200)
@given(problem=problems(FUNS), k=st.integers(0, 40), other=st.floats(0.0, 1.0), tol=st.sampled_from([1e-12, 1e-14]))
def test_a_nan_anywhere_gives_the_one_level_outcome(problem, k, other, tol):
    # The NaN sits at the k-th midpoint on the path to another target: a
    # point of some round's path, on this target's path or not.
    fun, target, lo, hi = problem
    seen = []
    record = lambda x: (seen.append(np.ravel(x)[0]), fun(x))[1]
    with np.errstate(all="ignore"):
        one_level(record, fun(lo[:1] + other * (hi[:1] - lo[:1])), lo[:1], hi[:1], tol)
    c = seen[min(2 + k, len(seen) - 1)]
    same(nan_at(c, fun), target, lo, hi, tol)


@settings(deadline=None, max_examples=200)
@given(problem=problems({**FUNS, **NOISY}), j=st.integers(0, 5), tol=st.sampled_from([1e-12, 1e-14]))
def test_a_nan_where_an_element_stops_gives_the_one_level_outcome(problem, j, tol):
    # One-level bisection evaluates a stopped element's midpoint at every
    # level while another element goes on, so the NaN raises when element
    # j stops before the last one does, and goes unseen otherwise.
    fun, target, lo, hi = problem
    j %= lo.size
    stop = one_level(fun, target[j : j + 1], lo[j : j + 1], hi[j : j + 1], tol)[0]
    same(nan_at(stop, fun), target, lo, hi, tol)


def test_a_nan_where_an_element_stops_after_a_missed_level_raises():
    # The round misses the first element's last level, so it never
    # evaluates the midpoint where that element stops; the second element
    # goes on past that level, so one-level bisection meets the NaN there.
    lo, hi = np.array([1.9125639686005647, 0.01539926526059492]), np.array([1.9125641598569616, 0.015414664525855513])
    target = np.array([1912564137.0247564, 15399269.81849397])
    args = (nan_at(1.912564138100393, NOISY["steps"]), target, lo, hi, 1e-14)
    message = "the function to invert is NaN at 1.912564138100393"
    assert outcome(_invert_monotone, *args) == ("error", "DomainError", message)
    same(*args)


def test_float_only_callables():
    assert _invert_monotone(math.exp, 3.0, 0.0, 2.0, 1e-14) == one_level(math.exp, 3.0, 0.0, 2.0, 1e-14)
    assert _invert_monotone(math.log, 0.5, 1.0, 2.0, 1e-12) == one_level(math.log, 0.5, 1.0, 2.0, 1e-12)


def test_a_misshapen_result_is_replayed():
    # A fun that reduces its argument gives one value per call: right for a
    # float, wrong for a round's paths.
    fun = lambda x: float(np.max(x)) ** 3
    assert _invert_monotone(fun, 3.0, 1.0, 2.0, 1e-14) == one_level(fun, 3.0, 1.0, 2.0, 1e-14)


# ------------------------------------------------------------------ _wsum


def row_loop(W, Y):
    acc = W[0] * Y[0]
    for i in range(1, len(W)):
        acc += W[i] * Y[i]
    return acc


weights = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80)
values = st.floats(-1e300, 1e300, allow_subnormal=True)


@settings(deadline=None, max_examples=300)
@given(w=weights, data=st.data(), column=st.booleans())
def test_single_column_wsum_is_the_row_loop(w, data, column):
    W = np.array(w)
    Y = np.array(data.draw(st.lists(values, min_size=len(w), max_size=len(w))))[:, None]
    if column:
        W = W[:, None]  # one weight per argument and column
    assert _wsum(W, Y).tobytes() == row_loop(W, Y).tobytes()


@settings(deadline=None, max_examples=100)
@given(w=weights, cols=st.integers(2, 5), data=st.data())
def test_several_columns_wsum_is_the_row_loop(w, cols, data):
    W = np.array(w)
    Y = np.array(data.draw(st.lists(values, min_size=len(w) * cols, max_size=len(w) * cols))).reshape(len(w), cols)
    assert _wsum(W, Y).tobytes() == row_loop(W, Y).tobytes()

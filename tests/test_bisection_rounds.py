"""``_invert_monotone`` against one bisection level per call, bit for bit.

The solver predicts where each root lies, evaluates every midpoint of the
bisection path toward it in one call of the function, and keeps the levels
where the path agrees with the decisions that one-level bisection takes.
``one_level`` below is that one-level bisection, written out step by step.
On clean functions every test compares the two with ``==``: values, and
the messages of the errors they raise.  With a NaN planted at one point,
the solver raises DomainError naming it, or never evaluates that point and
returns one-level bisection's bytes.  The solver never calls the function
more often.  Each property holds as well when the solve is seeded, as its
callers seed it, from the table of a monotonicity scan.  Also here: the
single-column ``means._wsum`` against its row loop.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_solver_kernels import Counted

from cdt.errors import DomainError
from cdt.generators import _MAX_LEVELS, _PATH_ELEMENTS, _first, _invert_monotone, _monotone_direction
from cdt.means import _wsum


def one_level(fun, target, lo, hi, tol, unit=1.0):
    """Bisection of fun(m) = target with one midpoint per element per call,
    to width tol relative to max(unit, |a|, |b|)."""

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
        active = (b - a) > tol * np.maximum(unit, np.maximum(b, -a))
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


def same(*args, table=None, unit=1.0):
    assert outcome(_invert_monotone, *args, table, unit) == outcome(one_level, *args, unit)


#: rows per bracket of the scan that seeds a solve (None: no table)
ROWS = [None, 33, 65]


def scan(fun, lo, hi, rows):
    """The table a caller's monotonicity scan of ``rows`` points per bracket
    hands the solver, or None."""
    return None if rows is None else _monotone_direction(fun, lo, hi, rows)[1]


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


#: a path ended short of its cap by the tolerance, off one-level
#: bisection's path at its last level: the element goes on
OFF_AT_THE_LAST_LEVEL = (
    FUNS["reciprocal"],
    np.array([2.1544346900318834]),
    np.array([0.4641588833612779]),
    np.array([0.4641588833612826]),
)


#: the scale below which the tolerance is absolute: 1 for the means and
#: the expression inverse, 0 (relative at every magnitude) for centroids
UNITS = [1.0, 0.0]


@settings(deadline=None, max_examples=300)
@given(problem=problems(FUNS), tol=st.sampled_from([1e-12, 1e-14, 1e-16]), rows=st.sampled_from(ROWS),
       unit=st.sampled_from(UNITS))
@example(problem=OFF_AT_THE_LAST_LEVEL, tol=1e-16, rows=None, unit=1.0)
def test_monotone_functions(problem, tol, rows, unit):
    fun, target, lo, hi = problem
    same(fun, target, lo, hi, tol, table=scan(fun, lo, hi, rows), unit=unit)


@settings(deadline=None, max_examples=300)
@given(problem=problems(NOISY), tol=st.sampled_from([1e-12, 1e-14, 1e-16]), rows=st.sampled_from(ROWS),
       unit=st.sampled_from(UNITS))
def test_noise_dominated_functions(problem, tol, rows, unit):
    fun, target, lo, hi = problem
    same(fun, target, lo, hi, tol, table=scan(fun, lo, hi, rows), unit=unit)


@settings(deadline=None, max_examples=300)
@given(problem=problems({**FUNS, **NOISY}), tol=st.sampled_from([1e-12, 1e-14, 1e-16]), rows=st.sampled_from(ROWS),
       unit=st.sampled_from(UNITS))
def test_no_more_calls_than_one_level(problem, tol, rows, unit):
    # the scan is the caller's, so its call is not the solver's
    fun, target, lo, hi = problem
    counted, ref = Counted(fun), Counted(fun)
    _invert_monotone(counted, target, lo, hi, tol, scan(fun, lo, hi, rows), unit)
    one_level(ref, target, lo, hi, tol, unit)
    assert counted.calls <= ref.calls


#: a falling function whose target is its value at a scan row that is also
#: a bisection midpoint
AT_A_ROW = (FUNS["exp-"], FUNS["exp-"](np.array([1.000000025])), np.array([1.0]), np.array([1.0000001]))

#: a falling function that underflows to 0, the target, on the upper end of
#: the bracket: every row is above the root, and the last cells are flat
UNDERFLOW = (FUNS["exp-"], np.array([0.0]), np.array([10.0**5.5]), np.array([2.0 * 10.0**5.5]))


@settings(deadline=None, max_examples=300)
@given(problem=problems(FUNS), tol=st.sampled_from([1e-12, 1e-14]), rows=st.sampled_from(ROWS[1:]))
@example(problem=AT_A_ROW, tol=1e-14, rows=33)
@example(problem=UNDERFLOW, tol=1e-12, rows=33)
def test_a_seeded_solve_makes_no_more_calls_than_an_unseeded_one(problem, tol, rows):
    # Seeded, the ends come from the table and the first path heads for a
    # root interpolated in the scan cell that holds it, not on the secant
    # through the ends.  Neither estimate is better where none helps: on
    # noise-dominated functions, or where the tolerance is finer than the
    # floats and midpoints round to the ends for up to _MAX_LEVELS levels
    # (1e-16); there either may take more calls.
    fun, target, lo, hi = problem
    seeded, unseeded = Counted(fun), Counted(fun)
    _invert_monotone(seeded, target, lo, hi, tol, scan(fun, lo, hi, rows))
    _invert_monotone(unseeded, target, lo, hi, tol)
    assert seeded.calls <= unseeded.calls


@settings(deadline=None, max_examples=300)
@given(problem=problems(NOISY), tol=st.sampled_from([1e-12, 1e-14, 1e-16]), rows=st.sampled_from(ROWS))
def test_noise_costs_points_linear_in_the_levels(problem, tol, rows):
    # After a path that keeps c levels, the next runs at most 2c + 2: over
    # L levels the rounds after the first evaluate at most 4L points, where
    # a path run to the tolerance every round would cost O(L^2).
    fun, target, lo, hi = problem
    counted, ref = Counted(fun), Counted(fun)
    _invert_monotone(counted, target[:1], lo[:1], hi[:1], tol, scan(fun, lo[:1], hi[:1], rows))
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


def test_relative_at_every_magnitude():
    # At unit 0 a root of 3e-8 stops at width 1e-12 relative (1.9e-13 off
    # it), where the default, absolute below 1, stops 8.9e-6 off; a root at
    # 0 between ends of both signs never gets narrower relative to its ends,
    # so it runs to the level cap, on paths as on one level per call.
    lo, hi, target = np.array([1e-8, -1.0]), np.array([1e-7, 1.0]), np.array([3e-8, 0.0])
    fun, ref = Counted(lambda x: x), Counted(lambda x: x)
    got = _invert_monotone(fun, target, lo, hi, 1e-12, None, 0.0)
    assert got.tobytes() == one_level(ref, target, lo, hi, 1e-12, 0.0).tobytes()
    assert abs(got[0] - 3e-8) <= 1e-12 * 3e-8 and abs(got[1]) <= 2.0**-_MAX_LEVELS
    assert ref.calls == 2 + _MAX_LEVELS
    assert abs(_invert_monotone(lambda x: x, 3e-8, 1e-8, 1e-7, 1e-12) - 3e-8) > 1e-6 * 3e-8  # absolute


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


@pytest.mark.parametrize("rows", ROWS)
def test_shapes(rows):
    lo, hi = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[2.0, 3.0], [4.0, 5.0]])
    cube, log = FUNS["cube"], FUNS["log"]
    same(cube, cube(lo + 0.3), lo, hi, 1e-14, table=scan(cube, lo, hi, rows))  # 2-D
    # targets over one bracket, as an expression generator's inverse has them
    same(cube, np.array([2.5, 3.0, 9.0]), 1.0, 2.0, 1e-14, table=scan(cube, 1.0, 2.0, rows))
    brackets = np.array([1.0, 1.5])  # over one target
    same(log, 0.5, brackets, 2.0, 1e-14, table=scan(log, brackets, 2.0, rows))
    same(log, np.zeros(0), np.zeros(0), np.zeros(0), 1e-14, table=scan(log, np.zeros(0), np.zeros(0), rows))


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


def test_a_nan_on_a_predicted_path_only_raises():
    # For x^3 = 0.064 in [0, 2] the secant puts the root at 0.016, not 0.4:
    # the first round's path goes down at 0.25, where one-level bisection
    # goes up, and on to 0.125, a NaN one-level bisection never meets.
    # The round evaluates it, so it raises.
    cube = lambda x: x**3
    fun = Counted(nan_at(0.125, cube))
    message = "the function to invert is NaN at 0.125"
    assert outcome(_invert_monotone, fun, 0.064, 0.0, 2.0, 1e-14) == ("error", "DomainError", message)
    assert fun.calls == 2 + 1
    assert outcome(one_level, nan_at(0.125, cube), 0.064, 0.0, 2.0, 1e-14)[0] == "value"

    def raising(x):
        if np.any(np.asarray(x) == 0.125):
            raise DomainError(f"undefined at {0.125!r}")
        return cube(x)

    assert outcome(_invert_monotone, raising, 0.064, 0.0, 2.0, 1e-14) == ("error", "DomainError", "undefined at 0.125")


def test_a_nan_on_the_path_raises_the_one_level_error():
    # 0.2003173828125 is the tenth midpoint on the way to 0.2 in [0, 1.5]:
    # the first round's path meets it and raises, as one-level bisection
    # does.
    args = (nan_at(0.2003173828125), np.array([0.4, 0.2]), 0.0, np.array([2.0, 1.5]), 1e-14)
    message = "the function to invert is NaN at 0.2003173828125"
    assert outcome(_invert_monotone, *args) == ("error", "DomainError", message)
    same(*args)


@pytest.mark.parametrize("rows", ROWS[1:])
@pytest.mark.parametrize("nans, named", [([0.5], 0.5), ([3.0], 3.0), ([1.0, 2.5], 2.5)])
def test_a_nan_at_a_table_end_raises_the_unseeded_error(rows, nans, named):
    # 0.5 and 2.5 are lower ends, 1.0 and 3.0 upper ends: a NaN at a lower
    # end is named before any at an upper end.
    fun = lambda x: np.where(np.isin(x, nans), np.nan, x)
    target, lo, hi = np.array([0.7, 1.7, 2.7]), np.array([0.5, 1.5, 2.5]), np.array([1.0, 2.0, 3.0])
    message = ("error", "DomainError", f"the function to invert is NaN at {named!r}")
    assert outcome(_invert_monotone, fun, target, lo, hi, 1e-14, scan(fun, lo, hi, rows)) == message
    assert outcome(_invert_monotone, fun, target, lo, hi, 1e-14) == message


def test_a_raising_fun_raises_the_one_level_error():
    def fun(x):
        if np.any(np.asarray(x) == 0.5):
            raise DomainError(f"undefined at {0.5!r}")
        return x

    assert outcome(_invert_monotone, fun, 0.2, 0.0, 2.0, 1e-14) == ("error", "DomainError", "undefined at 0.5")
    same(fun, 0.2, 0.0, 2.0, 1e-14)
    same(fun, 1.2, 0.0, 2.0, 1e-14)  # 0.5 is not on the path
    with pytest.raises(TypeError):  # a fun taking only floats fails on a round's paths
        _invert_monotone(math.exp, 3.0, 0.0, 2.0, 1e-14)


#: x_0 and x_1 for a NaN where the first element stops: the first round
#: misses that element's last level, so no round evaluates its midpoint,
#: which one-level bisection meets while the second element goes on
MISSED_LEVEL = (
    NOISY["steps"],
    np.array([1912564137.0247564, 15399269.81849397]),
    np.array([1.9125639686005647, 0.01539926526059492]),
    np.array([1.9125641598569616, 0.015414664525855513]),
)


@settings(deadline=None, max_examples=300)
@given(
    problem=problems({**FUNS, **NOISY}),
    where=st.sampled_from(["path", "stop"]),
    k=st.integers(0, 40),
    other=st.floats(0.0, 1.0),
    j=st.integers(0, 5),
    tol=st.sampled_from([1e-12, 1e-14]),
)
@example(problem=MISSED_LEVEL, where="stop", k=0, other=0.0, j=0, tol=1e-14)
def test_a_nan_anywhere_raises_or_goes_unseen(problem, where, k, other, j, tol):
    # The NaN sits at the k-th midpoint on the path to another target (a
    # point of some round's path, on this target's path or not), or where
    # element j stops.  Either the solve raises naming it, or no call
    # evaluates it and the brackets are one-level bisection's.
    fun, target, lo, hi = problem
    if where == "path":
        seen = []
        record = lambda x: (seen.append(np.ravel(x)[0]), fun(x))[1]
        with np.errstate(all="ignore"):
            one_level(record, fun(lo[:1] + other * (hi[:1] - lo[:1])), lo[:1], hi[:1], tol)
        c = float(seen[min(2 + k, len(seen) - 1)])
    else:
        j %= lo.size
        c = float(one_level(fun, target[j : j + 1], lo[j : j + 1], hi[j : j + 1], tol)[0])
    met = []
    planted = lambda x: (met.append(np.any(np.asarray(x) == c)), nan_at(c, fun)(x))[1]
    got = outcome(_invert_monotone, planted, target, lo, hi, tol)
    if got[0] == "error":
        assert got == ("error", "DomainError", f"the function to invert is NaN at {c!r}")
    else:
        assert not any(met)
        assert got == outcome(one_level, fun, target, lo, hi, tol)


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

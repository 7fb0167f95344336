import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdt.convexity import FunctionModel
from cdt.errors import DomainError, ParamError
from cdt.generators import LOG, Generator, Interval, get_generator
from cdt.generators import _POWER_DELTA_MIN, _invert_monotone, _monotone_direction, power_generator
from cdt.means import mean_value, parse_mean, power, quasi_arithmetic, weighted_mean


class TestPowerGuard:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bound_constructs(self, sign):
        gen = power_generator(sign * _POWER_DELTA_MIN)
        assert gen.power_order == sign * _POWER_DELTA_MIN
        assert gen.inv(gen.value(19306.97)) == pytest.approx(19306.97, rel=1e-10)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_below_bound_points_to_geometric_limit(self, sign):
        with pytest.raises(ParamError, match="use delta=0"):
            power_generator(sign * 0.99 * _POWER_DELTA_MIN)


class TestMonotoneDirection:
    def test_directions(self):
        assert _monotone_direction(math.exp, -1.0, 2.0) == 1
        assert _monotone_direction(lambda x: -x**3, 0.5, 2.0, 65) == -1
        assert _monotone_direction(lambda x: x * x, -1.0, 2.0) == 0

    def test_flat_stretch_is_not_monotone(self):
        assert _monotone_direction(lambda x: max(x, 0.0), -1.0, 1.0) == 0


class TestInvertMonotone:
    def test_increasing_and_decreasing(self):
        assert _invert_monotone(math.exp, 3.0, 0.0, 2.0, 1e-14) == pytest.approx(math.log(3.0), rel=1e-13)
        assert _invert_monotone(lambda x: 1.0 / x, 0.25, 1.0, 8.0, 1e-14) == pytest.approx(4.0, rel=1e-13)

    def test_target_outside_bracket_is_clipped(self):
        assert _invert_monotone(lambda x: x, 5.0, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-12)
        assert _invert_monotone(lambda x: -x, 5.0, 0.0, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------- one rule per generator-layer decision

INF = math.inf
MAX_FLOAT = np.finfo(float).max

#: interval ends from +-0, subnormals, normal floats, 1e+-300, +-max float and +-inf
EXTREME_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-323, 1e-300, -1e-300, 1e300, -1e300, MAX_FLOAT, -MAX_FLOAT, INF, -INF]),
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False),
)


def _hex(v):
    """The bytes of a float array, for bit-for-bit comparison."""
    return np.asarray(v, dtype=float).tobytes()


def _hand_mirrored_window(lo, hi):
    """``Interval.finite_window`` as it was written before its (-inf, hi)
    cases became the mirror image of (-hi, inf), with each end then stepped
    inside as the window steps it: the reference for the fold."""
    if math.isinf(lo) and math.isinf(hi):
        return -100.0, 100.0
    if math.isinf(hi):
        if lo >= 0.0:
            window = (1e-6 if lo == 0.0 else lo * (1.0 + 1e-9)), max(1e6, lo * 1e6)
        else:
            window = lo + 1e-9 * abs(lo), lo + 1e6 * max(1.0, abs(lo))
    elif math.isinf(lo):
        if hi <= 0.0:
            window = min(-1e6, hi * 1e6), (-1e-6 if hi == 0.0 else hi * (1.0 + 1e-9))
        else:
            window = hi - 1e6 * max(1.0, abs(hi)), hi - 1e-9 * abs(hi)
    else:
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        if lo + pad >= hi - pad:
            pad = 1e-3 * (hi - lo)
        window = lo + pad, hi - pad
    first, last = math.nextafter(lo, INF), math.nextafter(hi, -INF)
    return tuple(min(max(v, first), last) for v in window)


class TestFiniteWindow:
    @pytest.mark.parametrize(
        "lo, hi, window",
        [
            (-INF, INF, (-100.0, 100.0)),
            (0.0, INF, (1e-06, 1000000.0)),
            (-0.0, INF, (1e-06, 1000000.0)),
            (2.5, INF, (2.5000000025, 2500000.0)),
            (-3.0, INF, (-2.999999997, 2999997.0)),
            (-1e300, INF, (-9.99999999e299, 9.99999e305)),
            (-INF, 0.0, (-1000000.0, -1e-06)),
            (-INF, -0.0, (-1000000.0, -1e-06)),
            (-INF, -2.5, (-2500000.0, -2.5000000025)),
            (-INF, 3.0, (-2999997.0, 2.999999997)),
            (-INF, 1e300, (-9.99999e305, 9.99999999e299)),
            (-INF, 0.5, (-999999.5, 0.4999999995)),
            (1.0, 2.0, (1.000000002, 1.999999998)),
            (0.0, 1e-12, (1e-15, 9.989999999999999e-13)),
        ],
    )
    def test_every_branch_is_pinned(self, lo, hi, window):
        got = Interval(lo, hi).finite_window()
        assert [v.hex() for v in got] == [v.hex() for v in window]

    def test_half_lines_equal_the_hand_mirrored_copy_bit_for_bit(self):
        rng = np.random.default_rng(20)
        ends = [0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e-9, 0.5, 1.0, 3.7, 1e6, 1e300, 1.7e308]
        ends += (rng.standard_normal(40) * 10.0 ** rng.uniform(-300.0, 300.0, 40)).tolist()
        ends += [-e for e in ends]
        for e in ends:
            for lo, hi in ((e, INF), (-INF, e)):
                assert _hex(Interval(lo, hi).finite_window()) == _hex(_hand_mirrored_window(lo, hi)), (lo, hi)

    @settings(deadline=None, max_examples=500)
    @given(lo=EXTREME_ENDS, hi=EXTREME_ENDS, n=st.sampled_from([2, 3, 33, 257]))
    def test_windows_and_grids_are_finite_and_strictly_inside(self, lo, hi, n):
        assume(lo < hi)
        interval = Interval(lo, hi)
        if not math.nextafter(lo, INF) <= math.nextafter(hi, -INF):
            with pytest.raises(DomainError, match="holds no float"):
                interval.finite_window()
            return
        a, b = interval.finite_window()
        assert math.isfinite(a) and math.isfinite(b) and lo < a <= b < hi
        grid = interval.sample_grid(n)
        assert np.all(np.isfinite(grid)) and np.all((lo < grid) & (grid < hi)) and np.all(grid[1:] >= grid[:-1])

    @pytest.mark.parametrize(
        "lo, hi, window",
        [
            (5e-324, INF, (1e-323, 1e6)),
            (1.7e308, INF, (1.7000000017e308, MAX_FLOAT)),
            (-INF, -1.7e308, (-MAX_FLOAT, -1.7000000017e308)),
            (-1.7e308, INF, (-1.6999999982999998e308, MAX_FLOAT)),
            (5e-324, 2e-323, (1e-323, 1.5e-323)),
        ],
    )
    def test_extreme_ends_step_inside(self, lo, hi, window):
        assert Interval(lo, hi).finite_window() == window

    @pytest.mark.parametrize("lo, hi", [(5e-324, 1e-323), (MAX_FLOAT, INF), (-INF, -MAX_FLOAT), (1.0, 1.0000000000000002)])
    def test_an_interval_without_floats_has_no_window(self, lo, hi):
        with pytest.raises(DomainError, match="holds no float"):
            Interval(lo, hi).finite_window()

    def test_an_empty_interval_is_refused(self):
        with pytest.raises(DomainError, match="empty interval"):
            Interval(2.0, 1.0)


#: The two hand-written constructions of a power generator, before one sign
#: s = +-1 served both: the reference for (value, inverse, derivative).
PARENT_POWER = {
    1.0: (lambda d: lambda x: np.power(x, d), lambda d: lambda y: np.exp(np.log(y) / d),
          lambda d: lambda x: d * x ** (d - 1.0)),
    -1.0: (lambda d: lambda x: -np.power(x, d), lambda d: lambda y: np.exp(np.log(-y) / d),
           lambda d: lambda x: -d * x ** (d - 1.0)),
}


class TestPowerGenerators:
    @pytest.mark.parametrize("delta", [0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 51.0, -51.0, 3.3, -0.01, 2e-6, -7.0])
    def test_value_deriv_and_inverse_equal_the_two_branch_forms(self, delta):
        fwd, inv, der = (make(delta) for make in PARENT_POWER[math.copysign(1.0, delta)])
        gen = power_generator(delta)
        xs = np.geomspace(1e-3, 1e3, 301)
        ys = np.linspace(float(fwd(1e-3)), float(fwd(1e3)), 301)
        with np.errstate(all="ignore"):
            assert _hex(gen.value(xs)) == _hex(fwd(xs))
            assert _hex(gen.deriv(xs)) == _hex(der(xs))
            assert _hex(gen.inv(ys)) == _hex(inv(ys))

    def test_order_zero_is_log_under_another_name(self):
        gen = power_generator(0)
        assert gen.id == "power:0" and gen.power_order == 0.0
        assert (gen.forward, gen.inverse, gen.derivative, gen.domain) == (LOG.forward, LOG.inverse, LOG.derivative, LOG.domain)

    # From about 3500, fewer than two points of the first grid have normal
    # values, and validate checks on a second grid between them.
    @pytest.mark.parametrize("delta", [52.0, 60.0, 300.0, -60.0, -300.0, 3500.0, -3500.0, 5000.0, -5000.0])
    def test_high_orders_validate_where_their_values_are_normal_floats(self, delta):
        assert power_generator(delta).power_order == delta

    def test_qa_power_60_is_the_power_mean(self):
        xs, ws = [0.5, 1.5, 4.0], [0.2, 0.3, 0.5]
        assert weighted_mean(parse_mean("qa:power:60"), xs, ws) == weighted_mean(power(60), xs, ws)

    def test_qa_power_5000_is_the_power_mean(self):
        assert parse_mean("qa:power:5000") == quasi_arithmetic(power_generator(5000))
        assert mean_value(quasi_arithmetic(power_generator(5000)), 1.5, 3.0, 0.75) == mean_value(power(5000), 1.5, 3.0, 0.75)

    @pytest.mark.parametrize("delta", [1e6, -1e6])
    def test_an_order_whose_window_overflows_is_refused_truthfully(self, delta):
        with pytest.raises(ParamError, match=r"overflows or underflows on \(1e-06, 1000000.0\)"):
            power_generator(delta)

    def test_a_malformed_spec_is_refused(self):
        with pytest.raises(ParamError, match="bad power generator spec 'power:abc'"):
            get_generator("power:abc")


class TestValidate:
    @pytest.mark.parametrize(
        "forward, inverse, derivative, message",
        [
            (np.negative, np.negative, lambda x: -np.ones_like(x), "is not strictly increasing"),
            (lambda x: x, lambda y: 1.1 * y, np.ones_like, "inverse round trip failed at 1e-06"),
            (lambda x: x, lambda y: y, np.zeros_like, "derivative not positive at 1e-06"),
        ],
    )
    def test_each_invariant_is_checked(self, forward, inverse, derivative, message):
        with pytest.raises(ParamError, match=message):
            Generator("g", Interval(0.0, INF), forward, inverse, derivative).validate()


def test_a_callable_failing_on_the_whole_array_only_is_reported_as_failed():
    # No single point is undefined, so the point-by-point rerun names none
    # and the error quotes the callable's own message.
    def forward(x):
        if np.size(x) > 2:
            raise ValueError("three or more points")
        return x

    gen = Generator("pairs", Interval(), forward, lambda y: y, np.ones_like)
    with pytest.raises(DomainError) as info:
        gen.value(np.array([1.0, 2.0, 3.0]))
    assert str(info.value) == "generator 'pairs' failed: three or more points"


def _central(f, x, domain):
    """The central difference as it was computed before it ran inside
    ``_apply`` directly: the reference for every finite-difference path."""
    with np.errstate(all="ignore"):
        h = np.minimum(1e-6 * np.maximum(1.0, np.abs(x)), 0.45 * np.minimum(x - domain.lo, domain.hi - x))
        return (np.asarray(f(x + h), dtype=float) - np.asarray(f(x - h), dtype=float)) / (2.0 * h)


FD_MODELS = [
    ("cubic", Interval(0.0, INF), lambda x: x**3 - 3.0 * x**2),
    ("exp", Interval(-5.0, 5.0), np.exp),
    ("log", Interval(0.0, INF), np.log),
    ("sqrt", Interval(0.0, 4.0), np.sqrt),
    ("floats", Interval(0.5, 3.0), lambda x: math.log(x) + x),
]


class TestFiniteDifferences:
    @pytest.mark.parametrize("name, domain, f", FD_MODELS)
    def test_models_and_generators_equal_the_central_difference(self, name, domain, f):
        xs = np.linspace(0.6, 2.9, 50)
        model = FunctionModel(name, domain, f)
        want = _central(model.eval, xs, domain)
        assert _hex(model.deriv(xs)) == _hex(want)
        assert _hex(Generator(name, domain, f, lambda y: y).deriv(xs)) == _hex(want)
        assert model.deriv(1.5) == float(_central(model.eval, np.array([1.5]), domain)[0])

    def test_a_nan_difference_is_undefined_for_generators_too(self):
        f = lambda x: np.where(x > 2.0, np.nan, x)
        gen = Generator("g", Interval(0.0, INF), f, np.exp)
        with pytest.raises(DomainError, match="the derivative of generator 'g' is undefined at 2.0"):
            gen.deriv([1.0, 2.0])

    def test_no_room_inside_the_domain(self):
        with pytest.raises(DomainError, match="cannot differentiate at 0.0: no room inside"):
            FunctionModel("log", Interval(0.0, INF), np.log).deriv(0.0)


def _raise_at_two(exc):
    def fn(x):
        if x == 2.0:
            raise exc
        return math.log(x)

    return fn


class TestFailureRule:
    """A float-only callable that raises ArithmeticError or ValueError is
    undefined at that point, whichever method calls it; a CdtError of its
    own passes through."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Generator("g", Interval(0.0, INF), _raise_at_two(ZeroDivisionError()), math.exp).value([1.0, 2.0]),
             "generator 'g' is undefined at 2.0"),
            (lambda: Generator("g", Interval(0.0, INF), math.log, _raise_at_two(ValueError())).inv([1.0, 2.0]),
             "the inverse of generator 'g' is undefined at 2.0"),
            (lambda: Generator("e", Interval(), math.exp, math.log, math.exp).deriv(1e6),
             "the derivative of generator 'e' is undefined at 1000000.0"),
            (lambda: FunctionModel("p", Interval(0.0, INF), _raise_at_two(OverflowError())).value(2.0),
             "'p' is undefined at 2.0"),
            (lambda: FunctionModel("p", Interval(0.0, INF), math.log, _raise_at_two(OverflowError())).deriv([3.0, 2.0]),
             "the derivative of 'p' is undefined at 2.0"),
            (lambda: weighted_mean(quasi_arithmetic(Generator("g", Interval(0.0, INF), _raise_at_two(ArithmeticError()),
                                                              math.exp)), [1.0, 2.0], [0.5, 0.5]),
             "generator 'g' is undefined at 2.0"),
        ],
        ids=["Generator.value", "Generator.inv", "Generator.deriv", "FunctionModel.value", "FunctionModel.deriv",
             "quasi-arithmetic mean"],
    )
    def test_every_method_names_the_point(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_a_cdt_error_of_the_callable_passes_through(self):
        model = FunctionModel("p", Interval(0.0, INF), _raise_at_two(ParamError("p needs x != 2")))
        with pytest.raises(ParamError, match="p needs x != 2"):
            model.value(2.0)

    def test_the_image_of_a_float_only_log_takes_the_infinite_limit(self):
        assert Generator("l", Interval(0.0, INF), math.log, math.exp).image() == Interval(-INF, INF)

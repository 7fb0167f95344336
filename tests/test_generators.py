import math

import pytest

from cdt.errors import ParamError
from cdt.generators import _POWER_DELTA_MIN, _invert_monotone, _monotone_direction, power_generator


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

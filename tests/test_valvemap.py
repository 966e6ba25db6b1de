import pytest

from pneuctrl.config import DEFAULT_DEFLATION_CUBIC, DEFAULT_INFLATION_CUBIC
from pneuctrl.plant import Mode
from pneuctrl.valvemap import SpoolMap, eval_spool, invert_spool, spool_range


def raw_cubic(a, u):
    return a[0] + a[1] * u + a[2] * u * u + a[3] * u ** 3


@pytest.fixture(scope="module")
def inflation():
    return SpoolMap(a=DEFAULT_INFLATION_CUBIC, mode=Mode.INFLATION)


@pytest.fixture(scope="module")
def deflation():
    return SpoolMap(a=DEFAULT_DEFLATION_CUBIC, mode=Mode.DEFLATION)


class TestEvalSpool:
    def test_mid_duty_value(self, inflation):
        assert eval_spool(50.0, inflation) == pytest.approx(0.8225, abs=1e-6)

    def test_low_duty_clips_to_zero(self, inflation):
        # raw cubic gives -0.0890 at 20%
        assert raw_cubic(inflation.a, 20.0) == pytest.approx(-0.0890, abs=2e-4)
        assert eval_spool(20.0, inflation) == 0.0

    def test_zero_duty_clips(self, inflation):
        assert eval_spool(0.0, inflation) == 0.0

    def test_deflation_mid_duty(self, deflation):
        assert eval_spool(50.0, deflation) == pytest.approx(0.79875, abs=1e-6)

    def test_clipped_range_everywhere(self, inflation, deflation):
        for m in (inflation, deflation):
            for i in range(0, 1001):
                v = eval_spool(i / 10.0, m)
                assert 0.0 <= v <= 1.0

    def test_rejects_out_of_range_duty(self, inflation):
        with pytest.raises(ValueError):
            eval_spool(-1.0, inflation)
        with pytest.raises(ValueError):
            eval_spool(101.0, inflation)

    def test_effective_monotonicity(self, inflation, deflation):
        # calibrated cubics may dip slightly near the top of the range; any
        # decrease stays within the documented slope tolerance
        for m in (inflation, deflation):
            running_max = 0.0
            worst = 0.0
            for i in range(0, 1601):
                u = 20.0 + i * 0.05
                v = eval_spool(u, m)
                worst = max(worst, running_max - v)
                running_max = max(running_max, v)
            assert worst <= 0.01


class TestInvertSpool:
    def test_round_trip_mid_duty(self, inflation):
        assert invert_spool(eval_spool(50.0, inflation), inflation) == pytest.approx(50.0, abs=0.01)

    def test_floor_saturation(self, inflation):
        assert invert_spool(0.0, inflation) == inflation.u_min

    def test_ceiling_saturation(self, inflation):
        # raw cubic at 100% is 0.96 <= 1, so full opening is unattainable
        assert raw_cubic(inflation.a, 100.0) <= 1.0
        assert invert_spool(1.0, inflation) == inflation.u_max

    def test_attainable_values_inverted_within_tolerance(self, inflation, deflation):
        for m in (inflation, deflation):
            for i in range(0, 801):
                u = 20.0 + i * 0.1
                x = eval_spool(u, m)
                u_inv = invert_spool(x, m)
                assert abs(eval_spool(u_inv, m) - x) <= 1e-6

    def test_returns_lowest_attaining_duty(self, inflation):
        # in the dip region a value is attained several times; the inverse
        # must return the first crossing
        x = eval_spool(85.0, inflation)
        u_inv = invert_spool(x, inflation)
        assert u_inv < 80.0
        assert abs(eval_spool(u_inv, inflation) - x) <= 1e-6

    def test_round_trip_property_on_uniquely_attained_range(self, inflation, deflation):
        # oracle: dense sampling decides whether eval crosses the value once
        for m in (inflation, deflation):
            grid = [(20.0 + i * 0.01, raw_cubic(m.a, 20.0 + i * 0.01)) for i in range(8001)]
            for j in range(50, 8001 - 50, 40):
                u, x = grid[j]
                if not (1e-3 < x < 0.999):
                    continue
                crossings = sum(
                    1 for k in range(len(grid) - 1)
                    if (grid[k][1] - x) * (grid[k + 1][1] - x) < 0.0
                )
                if crossings != 1:
                    continue
                u_inv = invert_spool(eval_spool(u, m), m)
                assert u_inv == pytest.approx(u, rel=1e-4, abs=1e-3)

    def test_rejects_out_of_range_fraction(self, inflation):
        with pytest.raises(ValueError):
            invert_spool(-0.1, inflation)
        with pytest.raises(ValueError):
            invert_spool(1.1, inflation)


class TestConstructionValidation:
    def test_defaults_accepted(self):
        SpoolMap(a=DEFAULT_INFLATION_CUBIC)
        SpoolMap(a=DEFAULT_DEFLATION_CUBIC, mode=Mode.DEFLATION)

    def test_decreasing_map_rejected(self):
        with pytest.raises(ValueError):
            SpoolMap(a=(1.5, -0.01, 0.0, 0.0))

    def test_flat_map_rejected(self):
        with pytest.raises(ValueError):
            SpoolMap(a=(0.5, 0.0, 0.0, 0.0))

    def test_strong_interior_dip_rejected(self):
        # net-rising cubic whose slope reaches -0.012 between 50% and 90%
        with pytest.raises(ValueError):
            SpoolMap(a=(-2.0, 0.135, -2.1e-3, 1.0e-5))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            SpoolMap(a=DEFAULT_INFLATION_CUBIC, u_min=50.0, u_max=40.0)

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError):
            SpoolMap(a=(1.0, 2.0, 3.0))

    def test_dict_round_trip(self):
        m = SpoolMap(a=DEFAULT_INFLATION_CUBIC)
        assert m.to_dict() == {"a": list(DEFAULT_INFLATION_CUBIC), "u_min": 20.0, "u_max": 100.0, "mode": "inflation"}


class TestSpoolRange:
    @pytest.mark.parametrize("a", [
        DEFAULT_INFLATION_CUBIC,
        DEFAULT_DEFLATION_CUBIC,
        (0.0, 0.006, -4e-5, 0.0),       # quadratic, highest at 75 %
        (0.0, 0.006, -4e-5, 1e-9),      # cubic, highest near 75.2 %
    ])
    def test_extremes_of_every_duty_in_range(self, a):
        spool_map = SpoolMap(a=a)
        lo, hi = spool_range(spool_map)
        grid = [eval_spool(spool_map.u_min + i * 0.01, spool_map) for i in range(8001)]
        assert lo <= min(grid) <= lo + 1e-9
        assert hi - 1e-9 <= max(grid) <= hi

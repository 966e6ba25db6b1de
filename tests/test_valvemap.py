import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pneuctrl import valvemap
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


def loop_inversion_table(spool_map):
    """The inversion table built one duty at a time: duties every grid step from u_min, the last at u_max, and the
    running maximum of the clipped cubic over them."""
    n = int(math.ceil((spool_map.u_max - spool_map.u_min) / valvemap._GRID_STEP)) + 1
    us, hull, running = [], [], -math.inf
    for i in range(n):
        u = min(spool_map.u_min + i * valvemap._GRID_STEP, spool_map.u_max)
        running = max(running, valvemap.spool_fraction(spool_map.a, u))
        us.append(u)
        hull.append(running)
    return tuple(us), tuple(hull)


@st.composite
def valid_maps(draw):
    """A map whose cubic is a default one with each coefficient scaled by up to 30 %, on drawn duty bounds."""
    base = draw(st.sampled_from([DEFAULT_INFLATION_CUBIC, DEFAULT_DEFLATION_CUBIC]))
    a = tuple(c * draw(st.floats(0.7, 1.3)) for c in base)
    u_min = draw(st.floats(0.0, 60.0))
    u_max = draw(st.floats(u_min + 1.0, 100.0))
    try:
        return SpoolMap(a=a, u_min=u_min, u_max=u_max)
    except ValueError:
        assume(False)


class TestInversionTable:
    def test_default_maps_equal_the_loop_table(self, inflation, deflation):
        for m in (inflation, deflation):
            assert len(m._grid_u) == 1601
            assert (m._grid_u, m._grid_hull) == loop_inversion_table(m)

    @settings(max_examples=200, deadline=None)
    @given(spool_map=valid_maps())
    def test_drawn_maps_equal_the_loop_table(self, spool_map):
        assert (spool_map._grid_u, spool_map._grid_hull) == loop_inversion_table(spool_map)
        assert all(type(v) is float for v in spool_map._grid_u + spool_map._grid_hull)

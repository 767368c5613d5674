"""The percentile helper and the host-speed correction."""

import pytest

from perfbench.hostclock import REFERENCE_UNIT_S, HostClock
from perfbench.stats import (
    SAMPLES_BEYOND,
    percentile,
    spread,
    supported_tail,
    tail,
)


@pytest.mark.parametrize("count, expected", [
    (5000, 99.0), (1000, 99.0), (800, 98.75), (400, 97.5), (150, 100 * 140 / 150),
    (21, 100 * 11 / 21), (20, 50.0), (3, 50.0),
])
def test_supported_tail_leaves_ten_samples_beyond(count, expected):
    assert supported_tail(count) == pytest.approx(expected)


@pytest.mark.parametrize("count", [21, 150, 400, 999, 1000, 1001, 4800])
def test_tail_value_has_ten_samples_beyond_it(count):
    samples = [float(i) for i in range(count)]
    pct, value = tail(samples)
    assert sum(s > value for s in samples) >= SAMPLES_BEYOND
    assert pct <= 99.0
    # ... and is the highest such percentile up to p99.
    if pct < 99.0:
        assert sum(s > value for s in samples) == SAMPLES_BEYOND


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50.0) == 3.0
    assert percentile(samples, 100.0) == 5.0
    assert percentile(samples, 1.0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile(samples, 0.0)


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


def _clock(samples):
    """A clock with hand-placed samples ``(start, end, unit_s)``."""
    clock = HostClock()
    for start, end, unit in samples:
        clock._starts.append(start)
        clock._ends.append(end)
        clock._units.append(unit)
    return clock


def test_corrected_seconds_scale_by_the_surrounding_samples():
    ref = REFERENCE_UNIT_S
    # Reference speed until t=10, half speed from the t=20 sample on.
    clock = _clock([(0.0, 1.0, ref), (10.0, 11.0, ref),
                    (20.0, 21.0, 2 * ref), (30.0, 31.0, 2 * ref)])
    assert clock.seconds(1.0, 10.0) == pytest.approx(9.0)
    assert clock.seconds(21.0, 30.0) == pytest.approx(4.5)
    # Between unlike samples the mean unit governs: 9s at 1.5x slow.
    assert clock.seconds(11.0, 20.0) == pytest.approx(6.0)
    # Samples themselves are left out, wherever the interval starts.
    assert clock.seconds(0.5, 10.5) == pytest.approx(9.0)
    assert clock.seconds(5.0, 25.0) == pytest.approx(5.0 + 6.0 + 2.0)
    # Outside the sampled span the nearest sample governs.
    assert clock.seconds(-4.0, 0.0) == pytest.approx(4.0)
    assert clock.seconds(31.0, 35.0) == pytest.approx(2.0)
    assert clock.speed_factor(21.0, 30.0) == pytest.approx(2.0)
    assert clock.speed_factor(5.0, 25.0) == pytest.approx(18.0 / 13.0)


def test_work_clock_stands_still_during_a_sample():
    clock = HostClock()
    before = clock.work_now()
    clock.sample()
    after = clock.work_now()
    assert clock.samples == 1
    # The sample took ~3ms of host time; the work clock saw almost none.
    assert after - before < clock._units[0] / 2

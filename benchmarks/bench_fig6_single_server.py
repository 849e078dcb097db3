"""Figure 6: single-server ingestion throughput (one m5.large silo).

Paper: "roughly 1,800 requests per second can be processed by a m5.large
instance".  Shape asserted: throughput tracks offered load below
saturation, then plateaus near 1,800 req/s at full utilization.
"""

import pytest

from repro.bench import run_fig6

SENSOR_COUNTS = (600, 1200, 1800, 2400)


@pytest.fixture(scope="module")
def fig6_result():
    # The paper's shape holds under the paper's calibration: the ingestion
    # fast path (the runner's default) lifts the plateau past 1,800 req/s.
    return run_fig6(sensor_counts=SENSOR_COUNTS, duration=6.0, fast_path=False)


def test_fig6_shape(fig6_result):
    points = {p.sensors: p for p in fig6_result.points}
    # Below saturation the platform keeps up with the offered load exactly.
    for sensors in (600, 1200):
        assert points[sensors].throughput == pytest.approx(sensors, rel=0.02)
    # At and beyond saturation, throughput plateaus near the paper's 1,800.
    assert points[1800].throughput == pytest.approx(1800, rel=0.05)
    assert points[2400].throughput == pytest.approx(1800, rel=0.10)
    # Utilization reaches (close to) 100% at the plateau.
    assert points[2400].utilization > 0.98
    assert points[600].utilization < 0.5


def test_fig6_benchmark(benchmark):
    # The shape is asserted above from a module-scoped run; the benchmark
    # measures the wall-clock cost of regenerating one saturation point.
    def regenerate():
        return run_fig6(sensor_counts=(1800,), duration=4.0)

    result = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    assert result.points[0].throughput == pytest.approx(1800, rel=0.05)

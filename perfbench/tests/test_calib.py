"""The virtual clock's arithmetic, on a fake wall clock."""

import pytest

import calib


class FakeTime:
    def __init__(self):
        self.t = 0.0

    def perf_counter(self):
        return self.t


@pytest.fixture
def fake(monkeypatch):
    fake = FakeTime()
    fake.kernel_s = 0.01

    def kernel():
        fake.t += fake.kernel_s

    monkeypatch.setattr(calib, "time", fake)
    monkeypatch.setattr(calib, "kernel", kernel)
    monkeypatch.setattr(calib, "REFERENCE_S", 0.01)
    return fake


def test_clock_runs_at_measured_speed_and_skips_kernel_time(fake):
    vc = calib.VirtualClock()
    vc.calibrate()  # kernel at reference speed: speed 1
    assert vc.now() == 0.0
    fake.t += 1.0
    assert vc.now() == pytest.approx(1.0)
    fake.kernel_s = 0.02  # the machine is now twice as slow
    vc._tick()
    vc._tick()
    assert vc.now() == pytest.approx(1.0)  # kernel time is not counted
    fake.t += 1.0
    assert vc.now() == pytest.approx(1.5)


def test_speed_follows_the_median_of_recent_samples(fake):
    vc = calib.VirtualClock()
    vc.calibrate()
    fake.kernel_s = 0.05  # one slow sample among fast ones is ignored
    vc._tick()
    t = vc.now()
    fake.t += 1.0
    assert vc.now() - t == pytest.approx(1.0)
    assert vc.speed() == pytest.approx((3 * 1.0 + 0.2) / 4)


def test_clock_stands_still_after_stop(fake):
    vc = calib.VirtualClock()
    vc.calibrate()
    fake.t += 2.0
    vc.stop()
    fake.t += 5.0
    assert vc.now() == pytest.approx(2.0)

"""Pace scaling of closed-loop passes, on synthetic pace samples."""

import itertools

import pytest

from perfbench import inputs, pace


def test_slowness_is_mean_of_bracketing_samples_over_nominal():
    assert pace.slowness(pace.NOMINAL_S, pace.NOMINAL_S) == pytest.approx(1.0)
    assert pace.slowness(pace.NOMINAL_S, 2 * pace.NOMINAL_S) == pytest.approx(1.5)


def test_marks_scale_divides_by_slowness():
    marks = pace.Marks()
    marks.samples = [2 * pace.NOMINAL_S, 2 * pace.NOMINAL_S, 4 * pace.NOMINAL_S]
    assert marks.scale(3.0, 0, 1) == pytest.approx(1.5)
    assert marks.scale(3.0, 1, 2) == pytest.approx(1.0)


def test_kernel_is_fixed_work():
    assert pace.kernel() == pace.kernel()
    assert pace.sample() > 0.0


def test_marks_index_their_samples():
    marks = pace.Marks()
    assert marks.mark() == 0
    assert marks.mark() == 1
    assert all(s > 0.0 for s in marks.samples)


def test_closed_loop_brackets_setup_and_work_separately(monkeypatch):
    # pace samples: start, between, end of pass 0 (= start of pass 1), ...
    paces = itertools.cycle([1.0, 2.0, 4.0])
    monkeypatch.setattr(pace, "sample", lambda: next(paces) * pace.NOMINAL_S)
    calls = []

    def iterate(i, between):
        calls.append(i)
        between()
        return 0.3, 3.0, True

    passes = inputs.closed_loop(0.0, iterate)
    assert calls == [0, 1, 2]  # MIN_PASSES
    first = passes[0]
    assert first.setup_slowness == pytest.approx(1.5)  # (1 + 2) / 2
    assert first.work_slowness == pytest.approx(3.0)  # (2 + 4) / 2
    assert first.scaled_work_s == pytest.approx(1.0)
    # the next pass starts at the previous pass's end sample
    assert passes[1].setup_slowness == pytest.approx(2.5)  # (4 + 1) / 2


def test_closed_loop_result_reports_medians_of_scaled_times():
    passes = [
        inputs.Pass(0.2, 1.0, True, 1.0, 1.0),
        inputs.Pass(0.4, 2.0, True, 2.0, 2.0),
        inputs.Pass(0.9, 3.0, False, 1.0, 1.0),
    ]
    out = inputs.closed_loop_result(100, passes, "synthetic")
    assert out["attempted"] == 3
    assert out["failed"] == 1
    # scaled work times 1.0, 1.0, 3.0; scaled set-ups 0.2, 0.2, 0.9
    assert out["values"]["throughput_eps"] == pytest.approx(100.0)
    assert out["values"]["setup_s"] == pytest.approx(0.2)

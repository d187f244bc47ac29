"""The sustained-rate ladder: rungs, pass criteria and the search."""

import pytest

from perfbench import loadgen


def test_rungs_are_a_fixed_geometric_ladder():
    assert loadgen.rung_rate(0) == loadgen.RUNG_BASE_EPS
    for k in range(1, 6):
        assert loadgen.rung_rate(k) / loadgen.rung_rate(k - 1) == pytest.approx(
            loadgen.RUNG_FACTOR
        )


def test_start_rung_sits_at_or_below_the_share_of_the_estimate():
    k = loadgen.start_rung(30_000.0)
    assert loadgen.rung_rate(k) <= 15_000.0 < loadgen.rung_rate(k + 1)
    assert loadgen.start_rung(0.0) == 0
    assert loadgen.start_rung(1e12) == loadgen.RUNG_TOP


def rung(**overrides):
    fields = dict(rate=10_000.0, frames=50, events=3200, refused=0,
                  backlog_end=0, tail_ms=5.0, tail_q=0.9)
    fields.update(overrides)
    return loadgen.RungResult(**fields)


def test_rung_passes_only_without_refusal_growth_or_slow_tail():
    assert rung().passed()
    assert not rung(refused=1).passed()
    assert not rung(tail_ms=loadgen.LATENCY_LIMIT_MS + 0.1).passed()
    assert rung(tail_ms=loadgen.LATENCY_LIMIT_MS).passed()
    # slack: the larger of a fixed event count and a share of the rung
    assert rung(backlog_end=loadgen.BACKLOG_SLACK_EVENTS).passed()
    assert not rung(backlog_end=loadgen.BACKLOG_SLACK_EVENTS + 1).passed()
    big = 100_000
    assert rung(events=big, backlog_end=int(big * loadgen.BACKLOG_SLACK_SHARE)).passed()
    assert not rung(events=big, backlog_end=int(big * loadgen.BACKLOG_SLACK_SHARE) + 1).passed()


def capacity_probe(capacity_rung):
    tried = []

    def run_rung(k):
        tried.append(k)
        return k <= capacity_rung

    return tried, run_rung


def test_climb_goes_up_until_the_first_failure():
    tried, run_rung = capacity_probe(7)
    assert loadgen.climb(run_rung, start=4) == 7
    assert tried == [4, 5, 6, 7, 8]


def test_climb_descends_when_the_start_fails():
    tried, run_rung = capacity_probe(2)
    assert loadgen.climb(run_rung, start=5) == 2
    assert tried == [5, 4, 3, 2]


def test_climb_reports_none_when_nothing_passes_and_stops_at_the_top():
    _tried, never = capacity_probe(-1)
    assert loadgen.climb(never, start=3) is None
    tried, always = capacity_probe(100)
    assert loadgen.climb(always, start=3, top=6) == 6
    assert tried == [3, 4, 5, 6]


def test_frames_split_into_whole_frames_and_a_tail():
    frames = loadgen.frames_of(list(range(130)))
    assert [len(f) for f in frames] == [64, 64, 2]


def test_frame_log_latency_lag_and_refusals():
    log = loadgen.FrameLog(due=[1.0, 2.0, 3.0], sent=[1.0, 2.001, 3.0],
                           acked=[1.002, 2.01], ok=[True, False])
    assert log.latencies_ms() == pytest.approx([2.0, 10.0])
    assert log.lags_ms() == pytest.approx([0.0, 1.0, 0.0])
    assert log.refused == 2  # one refused, one never acknowledged

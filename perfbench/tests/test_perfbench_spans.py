"""Self time, scoping and the wrapper/patch mechanics on synthetic spans."""

import types

from perfbench import spans as sp


def span(sid, parent, name, start, end, rid=None):
    return (sid, parent, name, start, end, rid)


def test_self_time_subtracts_children():
    spans = [
        span(1, 0, "pipeline:run", 0, 100),
        span(2, 1, "cep.windows:on_events", 10, 30),
        span(3, 1, "cep.operator:apply", 40, 70),
        span(4, 3, "cep.patterns:match_window", 50, 60),
    ]
    assert sp.self_times(spans) == {1: 50, 2: 20, 3: 20, 4: 10}


def test_self_time_merges_overlapping_children_and_clips_to_the_parent():
    spans = [
        span(1, 0, "a:outer", 0, 100),
        span(2, 1, "b:x", 10, 50),
        span(3, 1, "b:y", 30, 60),  # overlaps 2: covered is 10..60, not 40 + 30
        span(4, 1, "b:z", 90, 130),  # runs past the parent: only 90..100 counts
    ]
    assert sp.self_times(spans)[1] == 100 - 50 - 10


def test_self_time_never_negative():
    spans = [span(1, 0, "a:outer", 0, 10), span(2, 1, "b:x", 0, 10), span(3, 1, "b:y", 0, 10)]
    assert sp.self_times(spans)[1] == 0


def test_aggregate_within_scope():
    spans = [
        span(1, 0, "core.model:train", 0, 50),
        span(2, 1, "cep.operator:apply", 10, 20),
        span(3, 0, "pipeline:simulate", 100, 200),
        span(4, 3, "cep.operator:apply", 110, 130),
    ]
    scope = sp.descendants(spans, [3])
    assert scope == {3, 4}
    table = sp.aggregate(spans, scope)
    assert table["cep.operator:apply"] == {"calls": 1, "total_ns": 20, "self_ns": 20}
    assert "core.model:train" not in table
    assert sp.layer_self_ns(table, "pipeline") == 80
    assert sp.calls(table, "missing:name") == 0 and sp.total_ns(table, "missing:name") == 0.0


def test_wrap_records_nesting_request_ids_and_folds_same_layer_calls():
    recorder = sp.SpanRecorder("run")
    inner = recorder.wrap("cep.windows:on_event", lambda x: x + 1, fold=True)
    outer = recorder.wrap("cep.windows:on_events", lambda xs: [inner(x) for x in xs], fold=True)
    seen = []
    top = recorder.wrap("pipeline:run", lambda xs: outer(xs), observe=lambda a, r: seen.append(r))
    recorder.request_id = "req-7"
    assert top([1, 2]) == [2, 3]
    assert seen == [[2, 3]]
    names = {s[2]: s for s in recorder.spans}
    # the per-event calls folded into the batch call's span
    assert set(names) == {"pipeline:run", "cep.windows:on_events"}
    assert names["cep.windows:on_events"][1] == names["pipeline:run"][0]
    assert all(s[5] == "req-7" for s in recorder.spans)
    assert not recorder.active


class Base:
    def method(self):
        return "base"


class Child(Base):
    def own(self):
        return "own"


def test_patcher_wraps_and_restores_inherited_own_and_module_attributes():
    module = types.ModuleType("fake")
    module.function = lambda: "module"
    recorder = sp.SpanRecorder("run")
    with sp.Patcher(recorder) as patcher:
        assert patcher.wrap(Child, "method", "x:method")
        assert patcher.wrap(Child, "own", "x:own")
        assert patcher.wrap(module, "function", "x:function")
        assert not patcher.wrap(Child, "absent", "x:absent")
        calls = []
        assert patcher.before(Child, "own", lambda obj: calls.append(obj))
        child = Child()
        assert (child.method(), child.own(), module.function()) == ("base", "own", "module")
        assert calls == [child]
        assert Base().method() == "base"
    assert len(recorder.spans) == 3
    assert "method" not in Child.__dict__  # inherited again, not shadowed
    assert Child.__dict__["own"](Child()) == "own"
    assert not hasattr(Child.own, "__wrapped__")
    assert not hasattr(module.function, "__wrapped__")

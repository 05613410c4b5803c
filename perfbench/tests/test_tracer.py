"""Span bookkeeping: self time, parents, op ids, patching and restoring."""

import pytest

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    t = Tracer(clock)
    a = t.push("a")                  # a: 0..10
    clock.now = 2.0
    b = t.push("b")                  # b: 2..5
    clock.now = 5.0
    t.pop(b)
    clock.now = 6.0
    c = t.push("c")                  # c: 6..9, holding d: 7..8 (aggregated only)
    clock.now = 7.0
    d = t.push("d", record=False)
    clock.now = 8.0
    t.pop(d)
    clock.now = 9.0
    t.pop(c)
    clock.now = 10.0
    t.pop(a)
    assert t.stats["a"] == [1, 10.0, 4.0]
    assert t.stats["b"] == [1, 3.0, 3.0]
    assert t.stats["c"] == [1, 3.0, 2.0]
    assert t.stats["d"] == [1, 1.0, 1.0]
    # d is aggregated, not recorded; b and c name a as their parent.
    assert [r[0] for r in t.records] == ["a", "b", "c"]
    assert [r[3] for r in t.records] == [-1, 0, 0]
    assert t.records[2][1:3] == [6.0, 9.0]


def test_repeated_calls_accumulate_and_carry_the_op_id():
    clock = FakeClock()
    t = Tracer(clock)
    f = t.wrap(lambda x: clock.__setattr__("now", clock.now + x), "f")
    t.op = 3
    f(1.5)
    t.op = 4
    f(2.0)
    assert t.stats["f"] == [2, 3.5, 3.5]
    assert [r[4] for r in t.records] == [3, 4]


def test_exceptions_close_the_span_and_reach_the_after_hook():
    seen = []
    t = Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    wrapped = t.wrap(boom, "boom", after=lambda a, k, res, exc, d: seen.append(type(exc)))
    with pytest.raises(KeyError):
        wrapped()
    assert seen == [KeyError]
    assert t.stack == [] and t.calls("boom") == 1


def test_uninstall_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    t = Tracer(FakeClock())
    t.patch(Child, "f", lambda self: "patched f")
    t.patch(Child, "g", lambda self: "patched g")
    assert Child().f() == "patched f" and Child().g() == "patched g"
    t.uninstall()
    assert Child().f() == "base" and Child().g() == "child"
    assert "f" not in Child.__dict__


def test_layer_hooks_replace_every_imported_binding_and_restore_them():
    from growthcalc import cli, growth, inequality_lab, legendre

    from tracer import install_layer_hooks, layer_metrics

    originals = (legendre.l_function_wide, inequality_lab.l_function_wide,
                 cli.l_function_wide, growth.GrowthFunctionSpec.__dict__["log_u"])
    t = Tracer()
    assert install_layer_hooks(t) == []
    try:
        assert legendre.l_function_wide is inequality_lab.l_function_wide is cli.l_function_wide
        assert legendre.l_function_wide is not originals[0]
        spec = growth.kondratiev_streit(0.5)
        legendre.legendre_transform(spec, 2.0)
        m = layer_metrics(t)
    finally:
        t.uninstall()
    assert (legendre.l_function_wide, inequality_lab.l_function_wide,
            cli.l_function_wide, growth.GrowthFunctionSpec.__dict__["log_u"]) == originals
    assert m["legendre.legendre_transform.calls"] == (1, "count")
    calls = m["growth.log_u.calls"][0]
    assert calls > 50
    assert m["legendre.log_u_per_solve"] == (calls, "calls/solve")

"""Self-tests of the benchmark's tracing: percentile helper, self time on a
synthetic span tree, and the wrapper table's missing-target path.

Run from the repository root:  python3 -m pytest -q asvbench/tests
"""

import sys
import textwrap
import types
from dataclasses import replace

import numpy as np
import pytest

import layers
from tracing import COUNT, Hook, Tracer, percentile, self_times


# -- percentile ---------------------------------------------------------------
@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = list(np.random.default_rng(3).exponential(size=257))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_small_inputs():
    assert percentile([4.0], 99) == 4.0
    assert percentile([3.0, 1.0], 50) == 2.0
    assert percentile([1, 2, 3, 4], 100) == 4
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- self time ----------------------------------------------------------------
def test_self_time_on_synthetic_tree():
    # 0 root [0, 100]
    #   1 child [10, 30]      2 child [20, 50] (overlaps 1)
    #   3 child [90, 120] (runs past the root's end)
    #     4 grandchild [95, 100] under 3
    #   5 child [12, 15] nested inside 1's interval but parented to the root
    # 6 second root [200, 260] with one child 7 [210, 230]
    start = [0, 10, 20, 90, 95, 12, 200, 210]
    end = [100, 30, 50, 120, 100, 15, 260, 230]
    parent = [-1, 0, 0, 0, 3, 0, -1, 6]
    got = self_times(start, end, parent)
    # root covered by union [10, 50] + [90, 100] = 50
    assert got.tolist() == [50, 20, 30, 25, 5, 3, 40, 20]


def test_self_time_without_children_is_duration():
    assert self_times([5, 7], [9, 8], [-1, -1]).tolist() == [4, 1]
    assert self_times([], [], []).tolist() == []


# -- wrappers ----------------------------------------------------------------
@pytest.fixture
def fake_module():
    mod = types.ModuleType("bench_fake_layers")
    exec(textwrap.dedent('''
        def inner(x):
            return x + 1

        def outer(n):
            return sum(inner(i) for i in range(n))

        class Box:
            def value(self):
                return inner(1)

        class SubBox(Box):
            pass
    '''), mod.__dict__)
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_spans_parents_tallies_and_restore(fake_module):
    original_outer, original_value = fake_module.outer, fake_module.Box.value
    tracer = Tracer()
    hooks = [
        Hook("outer", "bench_fake_layers:outer"),
        Hook("inner", "bench_fake_layers:inner", observe=lambda tr, args, out: out),
        Hook("box", "bench_fake_layers:Box.value", kind=COUNT),
    ]
    with tracer.installed(hooks):
        assert fake_module.outer(3) == 6
        assert fake_module.Box().value() == 2
    assert fake_module.outer is original_outer
    assert fake_module.Box.value is original_value
    assert tracer.missing == []

    a = tracer.arrays()
    names = [tracer.layers[i] for i in a["layer"]]
    assert names == ["outer", "inner", "inner", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 0, 0, -1]
    assert tracer.tallies == {"inner": 1 + 2 + 3 + 2}
    assert tracer.counts == {("box", ""): 1}
    own = self_times(a["start"], a["end"], a["parent"])
    dur = a["end"] - a["start"]
    assert own[0] == dur[0] - dur[1:4].sum()


def test_inherited_method_is_restored_to_the_base(fake_module):
    with Tracer().installed([Hook("sub", "bench_fake_layers:SubBox.value")]) as tracer:
        assert "value" in vars(fake_module.SubBox)
        assert fake_module.SubBox().value() == 2
    assert "value" not in vars(fake_module.SubBox)
    assert tracer.layers == ["sub"] and len(tracer) == 1


def test_restores_after_exception(fake_module):
    original = fake_module.inner
    with pytest.raises(RuntimeError):
        with Tracer().installed([Hook("inner", "bench_fake_layers:inner")]):
            raise RuntimeError("boom")
    assert fake_module.inner is original


def test_missing_targets_are_reported_not_fatal(fake_module):
    tracer = Tracer()
    hooks = [
        Hook("gone_attr", "bench_fake_layers:no_such_function"),
        Hook("gone_class", "bench_fake_layers:NoSuchClass.method"),
        Hook("gone_method", "bench_fake_layers:Box.no_such_method"),
        Hook("gone_module", "bench_no_such_module:f"),
        Hook("outer", "bench_fake_layers:outer"),
    ]
    with tracer.installed(hooks):
        fake_module.outer(2)
    assert tracer.missing == ["gone_attr", "gone_class", "gone_method", "gone_module"]
    assert len(tracer) == 1


def test_missing_engine_layer_leaves_its_invariant_unchecked():
    from asvsim import engine, scenarios

    scn = scenarios.head_on()
    scn = replace(scn, config=replace(scn.config, max_time=3.0))
    hooks = [replace(h, target=h.target + "_removed") if h.layer == "engine.sensing" else h
             for h in layers.HOOKS]
    tracer = Tracer()
    with tracer.installed(hooks):
        result = engine.run(scn, record=False)
    assert tracer.missing == ["engine.sensing"]
    metrics, inv = layers.layer_metrics(tracer, 1.0, 2.0)
    assert metrics["engine.sensing_calls"] == 0
    assert metrics["mmg.deriv_calls"] == 4 * result.n_steps * 2
    assert metrics["trace.overhead_frac"] == 0.5
    assert inv["sensing_calls"] == "unchecked: layer missing"
    assert inv["deriv_calls"]["held"]
    assert layers.invariants_held(inv)


def test_metrics_of_an_empty_trace_are_zero():
    metrics, inv = layers.layer_metrics(Tracer(), 0.0, 0.0)
    assert list(metrics) == list(layers.PER_LAYER_UNITS)
    assert all(v == 0 for v in metrics.values())
    assert inv["runs_checked"] == 0

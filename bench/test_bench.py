"""Tests of the benchmark itself: tracer arithmetic, gates and workload accounting.

Library-free tests use toy functions and stub modules, so they check the
benchmark's logic without the cost of real workloads.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
if str(BENCH_DIR.parent / "src") not in sys.path:
    sys.path.append(str(BENCH_DIR.parent / "src"))

import gates  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, busy_of_layer  # noqa: E402
from workloads import WORKLOADS, NilpotentHomExt, OpLog, ThinScan, VerifyAll, thin_variety_size  # noqa: E402


def fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


# -- tracer -----------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    now, clock = fake_clock()
    t = Tracer(clock=clock)

    def inner():
        now[0] += 2

    inner_w = t.timed(inner, "toy.inner")

    def outer():
        now[0] += 1
        inner_w()
        now[0] += 3
        inner_w()
        now[0] += 1

    t.timed(outer, "toy.outer")()
    agg = t.aggregate()
    assert agg["toy.outer"] == {"calls": 1, "busy_s": 9.0, "self_s": 5.0}
    assert agg["toy.inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert busy_of_layer(t, "toy.") == 9.0


def test_recursion_is_busy_once_but_self_per_level():
    now, clock = fake_clock()
    t = Tracer(clock=clock)
    box = {}

    def rec(n):
        now[0] += 1
        if n:
            box["f"](n - 1)

    box["f"] = t.timed(rec, "toy.rec")
    box["f"](2)
    agg = t.aggregate()["toy.rec"]
    assert agg == {"calls": 3, "busy_s": 3.0, "self_s": 3.0}


def test_generator_spans_cover_only_its_own_steps():
    now, clock = fake_clock()
    t = Tracer(clock=clock)

    def gen():
        for i in range(3):
            now[0] += 1
            yield i

    wrapped = t.timed_generator(gen, "toy.gen")

    def consumer():
        got = []
        for item in wrapped():
            now[0] += 10
            got.append(item)
        return got

    assert t.timed(consumer, "toy.consumer")() == [0, 1, 2]
    agg = t.aggregate()
    assert agg["toy.gen"]["busy_s"] == 3.0
    assert agg["toy.consumer"]["busy_s"] == 33.0
    assert agg["toy.consumer"]["self_s"] == 30.0
    assert t.counters["toy.gen.calls"] == 1
    assert t.counters["toy.gen.yielded"] == 3


def test_generator_abandoned_early_leaves_no_open_span():
    now, clock = fake_clock()
    t = Tracer(clock=clock)

    def gen():
        while True:
            now[0] += 1
            yield 0

    it = t.timed_generator(gen, "toy.gen")()
    next(it)
    it.close()
    assert not t.is_open("toy.gen")
    assert t.aggregate()["toy.gen"]["busy_s"] == 1.0


def test_every_binding_of_a_function_is_wrapped_and_restored(monkeypatch):
    def f():
        return 7

    pkg, a, b = (types.ModuleType(n) for n in ("toypkg", "toypkg.a", "toypkg.b"))
    a.f = f
    b.f = f  # as bound by "from .a import f"
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    t = Tracer()
    t.patch_function("toypkg", a, "f", lambda fn: t.timed(fn, "toy.f"))
    assert b.f() == 7 and a.f() == 7
    assert t.aggregate()["toy.f"]["calls"] == 2
    t.uninstall()
    assert a.f is f and b.f is f


def test_methods_static_and_inherited_are_restored():
    class Base:
        def op(self):
            return 1

    class Thing(Base):
        @staticmethod
        def make():
            return 2

    raw_make = Thing.__dict__["make"]
    t = Tracer()
    t.patch_method(Thing, "make", lambda fn: t.timed(fn, "toy.make"))
    t.replace(Thing, "op", t.counted(Thing.op, "toy.op"))
    assert Thing.make() == 2 and Thing().op() == 1
    assert t.counters["toy.op"] == 1
    t.uninstall()
    assert Thing.__dict__["make"] is raw_make
    assert "op" not in Thing.__dict__


# -- gates -----------------------------------------------------------------


def _report(got_set_repr: str, passed: bool = True) -> str:
    case = {"key": "k", "expected": "{(1, 'a'), (2, 'b')}", "got": got_set_repr, "pass": passed}
    return json.dumps({"suite": "all", "cases": [case], "all_pass": passed})


def test_verify_gate_ignores_set_order_and_catches_corruption():
    good = _report("{(1, 'a'), (2, 'b')}")
    digest = gates.sha256(gates.canonical_report(good))
    assert gates.verify_report_ok(0, good, digest)
    assert gates.verify_report_ok(0, _report("{(2, 'b'), (1, 'a')}"), digest)
    assert not gates.verify_report_ok(0, good, "0" * 64)
    assert not gates.verify_report_ok(0, _report("{(1, 'a'), (3, 'b')}", passed=False), digest)
    assert not gates.verify_report_ok(1, good, digest)
    assert not gates.verify_report_ok(0, good[:-5], digest)


def test_scan_and_pair_gates_catch_wrong_values():
    csv_text = "a1,status\n1,Stable\n"
    digest = gates.sha256(csv_text)
    assert gates.scan_ok(csv_text, 1, digest, 1)
    assert not gates.scan_ok(csv_text.replace("1,", "2,"), 1, digest, 1)
    assert not gates.scan_ok(csv_text, 2, digest, 1)
    assert gates.pair_laws_ok(form=1, hom_mn=1, hom_nm=1, ext_mn=1, ext_space_dim=1)
    assert not gates.pair_laws_ok(form=1, hom_mn=2, hom_nm=1, ext_mn=1, ext_space_dim=1)
    assert not gates.pair_laws_ok(form=1, hom_mn=1, hom_nm=1, ext_mn=1, ext_space_dim=2)


# -- workloads with stub libraries ----------------------------------------------


class StubError(Exception):
    pass


def _stub_homext(ext=lambda m, n: 0, space=None, hom=lambda m, n: 1):
    return SimpleNamespace(
        errors=SimpleNamespace(PpalgError=StubError),
        rep=SimpleNamespace(hom_dim=hom),
        hom=SimpleNamespace(
            ext1_dim_via_complex=ext,
            ext1_space=space or (lambda m, n: SimpleNamespace(dim=ext(m, n))),
        ),
    )


def _pairs(count=3, form=2):
    return {"pairs": [(("Q", "F", i, j), i, j, form) for i in range(count) for j in range(count)]}


def test_homext_unit_passes_consistent_answers():
    log = OpLog()
    NilpotentHomExt().unit(_stub_homext(), _pairs(), log)
    assert (log.attempted, log.failed, log.items) == (9, 0, 9)


def test_homext_unit_counts_each_broken_law():
    log = OpLog()
    wrong_space = lambda m, n: SimpleNamespace(dim=1 if (m, n) == (0, 1) else 0)  # noqa: E731
    NilpotentHomExt().unit(_stub_homext(space=wrong_space), _pairs(), log)
    assert log.failed == 1

    log = OpLog()
    ext = lambda m, n: 1 if (m, n) == (0, 1) else 0  # noqa: E731
    hom = lambda m, n: 1 if (m, n) != (0, 1) else 2  # keeps the form identity  # noqa: E731
    NilpotentHomExt().unit(_stub_homext(ext=ext, hom=hom), _pairs(), log)
    assert log.failed == 2  # (0, 1) breaks only the symmetry law, (1, 0) the form identity too

    def raising(m, n):
        raise StubError("budget")

    log = OpLog()
    NilpotentHomExt().unit(_stub_homext(space=raising), _pairs(), log)
    assert log.failed == 9


def test_thin_scan_unit_catches_a_corrupted_csv():
    rows = "a1,status\n1,Stable\n"
    expected = {
        "csv_sha256": {str(q): {"C(1)": gates.sha256(rows)} for q in (2, 3)},
        "stable_classes": {"2": 1, "3": 1},
    }
    state = {"dq": None, "d": None, "chambers": [("C(1)", None)], "fields": [(2, "f2"), (3, "f3")], "expected": expected}

    def stub(csv_by_q):
        def moduli_scan(dq, d, theta, field):
            return SimpleNamespace(to_csv=lambda: csv_by_q[field], stable_records=lambda: [0])

        return SimpleNamespace(stability=SimpleNamespace(moduli_scan=moduli_scan), errors=SimpleNamespace(PpalgError=StubError))

    log = OpLog()
    ThinScan().unit(stub({"f2": rows, "f3": rows}), state, log)
    assert (log.attempted, log.failed, log.items) == (1, 0, thin_variety_size(2) + thin_variety_size(3))
    log = OpLog()
    ThinScan().unit(stub({"f2": rows, "f3": rows.replace("Stable", "Unstable")}), state, log)
    assert log.failed == 1


def test_verify_unit_catches_failed_exit_and_wrong_report():
    report = _report("{(1, 'a'), (2, 'b')}")
    state = {"seed": 3, "expected": {"report_sha256": gates.sha256(gates.canonical_report(report)), "checks": 1}}

    def stub(code, text):
        def main(argv):
            assert argv[-2:] == ["--seed", "3"]
            print(text)
            return code

        return SimpleNamespace(cli=SimpleNamespace(main=main))

    for code, text, failed in ((0, report, 0), (1, report, 1), (0, report.replace("(2,", "(4,"), 1)):
        log = OpLog()
        VerifyAll().unit(stub(code, text), state, log)
        assert log.failed == failed


# -- speed probe -------------------------------------------------------------------


def test_operations_are_rescaled_by_the_samples_near_them():
    probe = SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0]
    probe.samples = [speed.NOMINAL_S, 2 * speed.NOMINAL_S, speed.NOMINAL_S, speed.NOMINAL_S]
    assert probe.factor_near(0.9, 1.1) == 0.5
    assert probe.factor_near(10.0, 11.0) == 1.0  # none near: the nearest sample
    assert probe.factor_since(2) == 1.0
    log = OpLog(clock=lambda: 5.0)
    log.record(0.2, True, 1, start=0.9)
    log.record(0.5, True, 1)  # started at 4.5
    log.rescale_since(0, probe.factor_near)
    assert log.latencies == [0.1, 0.5]


def test_probe_times_only_its_warm_run_and_hides_both():
    probe = SpeedProbe()
    probe._tick(None, None)
    assert len(probe.samples) == 1 and probe.spent > probe.samples[0] > 0


# -- run-level helpers and the benchmark contract ----------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(100))
    assert run.tail_latency(values) == (89, 90.0)
    assert run.tail_latency([3, 1, 2]) == (3, 100.0)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


# -- against the library --------------------------------------------------------


def test_variety_size_formula_matches_enumeration():
    pytest.importorskip("ppalg")
    from ppalg.fields import GF
    from ppalg.quiver import standard_extended_dynkin
    from ppalg.stability import enumerate_thin_reps

    dq, d = standard_extended_dynkin("A", 2)
    for q in (2, 3):
        assert sum(1 for _ in enumerate_thin_reps(dq, d, GF(q))) == thin_variety_size(q)


def test_random_chamber_parameters_keep_the_frozen_csv():
    pytest.importorskip("ppalg")
    import ppalg

    P = SimpleNamespace(**{m: getattr(__import__(f"ppalg.{m}"), m) for m in run.MODULES})
    state = ThinScan().setup(P, seed=5)
    rs = P.weyl.finite_root_system(state["dq"], state["d"])
    for (label, theta), word in zip(state["chambers"], P.verify.A2_CHAMBER_WORDS):
        assert P.weyl.chamber_of(rs, theta) == P.weyl.chamber_of(rs, P.verify.chamber_theta(state["dq"], word))
        assert theta != P.verify.chamber_theta(state["dq"], word)
    state["fields"] = [(2, ppalg.GF(2))]
    log = OpLog()
    ThinScan().unit(P, state, log)
    assert (log.attempted, log.failed) == (6, 0)

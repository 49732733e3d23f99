"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All checks are exact (integer equality, zero mismatch counts); the two
wall-clock limits are asserted where stated.  Run with `pytest -s` to see
the per-criterion lines as they happen.
"""

import time

from ppalg.fields import GF
from ppalg.verify import (
    CBFORM_SAMPLES,
    COXETER_MIN_SAMPLES,
    DIMLAW_SAMPLES,
    check_L_sequences,
    check_stability_characterization,
    cbform_suite,
    coxeter_suite,
    dimlaw_suite,
    figure2_report,
    rootlaw_suite,
    roundtrip_suite,
    walls_suite,
    zerogen_suite,
    A2_CHAMBER_WORDS,
)


def _emit(number: int, label: str, report, elapsed=None, limit=None):
    ok = report.all_pass if hasattr(report, "all_pass") else report
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.1f}s"
        if limit is not None:
            timing += f", limit {limit}s"
            ok = ok and elapsed < limit
        timing += ")"
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}{timing}")
    return ok


def test_criterion_01_six_chamber_table():
    start = time.time()
    reports = [figure2_report(GF(q)) for q in (2, 3)]
    elapsed = time.time() - start
    ok = _emit(
        1,
        "six-chamber table: sign patterns, shift degrees, unique intersection, incidence",
        all(r.all_pass for r in reports),
        elapsed,
        30,
    )
    for r in reports:
        assert r.all_pass, r.to_table()
    assert ok


def test_criterion_02_stability_characterization():
    start = time.time()
    reports = [
        check_stability_characterization(GF(q), w)
        for q in (2, 3)
        for w in A2_CHAMBER_WORDS
    ]
    elapsed = time.time() - start
    ok = _emit(
        2,
        "hom-vanishing criterion matches semistability, exhaustive, all chambers",
        all(r.all_pass for r in reports),
        elapsed,
        120,
    )
    for r in reports:
        assert r.all_pass, r.to_table()
    assert ok


def test_criterion_03_dimension_vector_law():
    assert DIMLAW_SAMPLES == 200
    report = dimlaw_suite()
    assert _emit(3, "reflected dimension vectors follow the simple reflection", report)
    assert report.all_pass, report.to_table()


def test_criterion_04_round_trip_and_transport():
    reports = [roundtrip_suite(GF(q)) for q in (2, 3)]
    assert _emit(
        4,
        "opposite reflections invert each other and preserve verdict classes",
        all(r.all_pass for r in reports),
    )
    for r in reports:
        assert r.all_pass, r.to_table()


def test_criterion_05_coxeter_relations():
    assert COXETER_MIN_SAMPLES == 50
    report = coxeter_suite()
    assert _emit(5, "involution and braid relations on 50+ semistable samples", report)
    assert report.all_pass, report.to_table()


def test_criterion_06_form_identity():
    assert CBFORM_SAMPLES == 30
    report = cbform_suite()
    assert _emit(6, "bilinear form identity on all pairs of 30-module samples", report)
    assert report.all_pass, report.to_table()


def test_criterion_07_root_and_shift_law():
    report = rootlaw_suite()
    assert _emit(7, "shift degree and signed dims track the transported roots", report)
    assert report.all_pass, report.to_table()


def test_criterion_08_zero_generation():
    reports = [zerogen_suite(GF(q)) for q in (2, 3)]
    assert _emit(
        8,
        "fundamental-chamber membership = zero-generated = hom-vanishing",
        all(r.all_pass for r in reports),
    )
    for r in reports:
        assert r.all_pass, r.to_table()


def test_criterion_09_wall_crossing_bijection():
    reports = [walls_suite(GF(q)) for q in (2, 3, 4)]
    assert _emit(
        9,
        "equal stable class counts across chambers with an explicit bijection",
        all(r.all_pass for r in reports),
    )
    for r in reports:
        assert r.all_pass, r.to_table()


def test_criterion_10_exceptional_sequences():
    report = check_L_sequences(GF(3))
    assert _emit(
        10,
        "sub and quotient sequences through every curve member are exact and non-split",
        report,
    )
    assert report.all_pass, report.to_table()

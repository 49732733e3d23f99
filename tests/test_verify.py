import ast
import hashlib
import itertools
import json
from pathlib import Path

import pytest

import ppalg.verify as verify_module
from ppalg.errors import ShapeError, UsageError
from ppalg.fields import GF, QQ
from ppalg.linalg import Matrix
from ppalg.quiver import standard_extended_dynkin
from ppalg.rep import MORPHISM_SCAN_BUDGET, hom_basis, hom_dim, nonzero_morphisms, Representation
from ppalg.reflection import apply_word
from ppalg.stability import moduli_scan, stability_verdict
from ppalg.verify import (
    A2_CHAMBER_WORDS,
    BASE_THETA,
    a2_setup,
    chamber_theta,
    check_L_sequences,
    check_stability_characterization,
    exceptional_membership,
    figure2_report,
    random_nilpotent,
    run_suite,
    shifted_simples,
    zerogen_suite,
)
from ppalg.weyl import StabilityParameter, WeylGroup, chamber_label, chamber_word, finite_root_system
from relation_maps import dual, socle_multiplicities


def test_a2_chamber_words_are_the_canonical_words_of_the_weyl_group():
    # the suites read their chambers from canonical_words(); the constant keeps their order
    assert a2_setup()[2].canonical_words() == list(A2_CHAMBER_WORDS)


@pytest.mark.parametrize("kind, n", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_chambers_derive_their_parameters_from_the_weyl_group(kind, n):
    dq, d = standard_extended_dynkin(kind, n)
    wg = WeylGroup(finite_root_system(dq, d))
    loop = list(verify_module.chambers(wg))
    assert [word for word, _, _ in loop] == wg.canonical_words()
    assert loop[0][2] == StabilityParameter.from_tail(d, [1] * wg.rank)
    for word, label, theta in loop:
        assert len(theta) == dq.vertex_count and theta(d) == 0
        assert label == chamber_label(word)
        # the breadth-first words against the descent of theta
        assert chamber_word(dq, d, theta) == word


def test_walls_fails_a_transport_that_leaves_the_chamber_of_its_word(monkeypatch):
    assert not any(c.key.endswith("parameter transport") for c in verify_module.walls_suite(GF(2)).cases)
    # modules that stay put keep the base parameter, which lies in C(1) and in no other chamber
    monkeypatch.setattr(verify_module, "apply_word", lambda word, m, theta: (m, theta))
    rep = verify_module.walls_suite(GF(2))
    failed = [(c.key, c.expected, c.got) for c in rep.cases if not c.passed]
    assert failed == [(f"{chamber_label(w)} parameter transport", True, False) for w in A2_CHAMBER_WORDS[1:]]


def test_unknown_suite_raises():
    with pytest.raises(UsageError):
        run_suite("unknown")


def test_chs_suite_single_chamber():
    rep = check_stability_characterization(GF(2), (1,))
    assert rep.all_pass


def test_zerogen_f2():
    assert zerogen_suite(GF(2)).all_pass


def test_figure2_f2():
    rep = figure2_report(GF(2))
    assert rep.all_pass, rep.to_table()


def test_figure2_exercises_the_extension_field():
    rep = figure2_report(GF(4))
    assert rep.all_pass, rep.to_table()


def test_report_json_shape():
    rep = zerogen_suite(GF(2))
    payload = json.loads(json.dumps(rep.to_json()))
    assert payload["all_pass"] is True
    assert payload["total"] == len(payload["cases"])
    assert all(set(c) == {"key", "expected", "got", "pass"} for c in payload["cases"])


def test_reports_record_their_parameter_samples():
    rep = figure2_report(GF(2))
    assert rep.meta["theta C(1)"] == "-2,1,1"
    assert rep.meta["theta C(s1)"] == "-1,-1,2"
    assert len([k for k in rep.meta if k.startswith("theta ")]) == 6


def test_membership_at_identity_matches_socle_condition():
    dq, d, wg = a2_setup()
    f = GF(3)
    theta = chamber_theta(dq, ())
    scan = moduli_scan(dq, d, theta, f)
    siws = shifted_simples(wg, (), f)
    for rec in scan.records:
        flags = exceptional_membership(rec.rep, wg, (), siws)
        for i in (1, 2):
            s = Representation.simple(dq, f, i)
            assert flags[i] == (hom_dim(s, rec.rep) > 0)


@pytest.mark.parametrize("word", A2_CHAMBER_WORDS)
def test_membership_commutes_with_transport(word):
    dq, d, wg = a2_setup()
    f = GF(2)
    base_theta = chamber_theta(dq, ())
    scan = moduli_scan(dq, d, base_theta, f)
    base_siws, word_siws = shifted_simples(wg, (), f), shifted_simples(wg, word, f)
    for rec in scan.stable_records():
        flags = exceptional_membership(rec.rep, wg, (), base_siws)
        assert sorted(flags) == [1, 2]
        moved, _ = apply_word(word, rec.rep, base_theta)
        assert exceptional_membership(moved, wg, word, word_siws) == flags


def scan_membership(m, wg, word, siws):
    """The morphism-scan curve test the Hom test replaced, kept as its oracle.

    Flag i looks for an injective map S -> m, or D(S) -> D(m) between the
    duals when the transported simple root is negative.
    """
    flags = {}
    for i in range(1, wg.rank + 1):
        source, target = siws[i].module, m
        if any(c < 0 for c in wg.act_on_root(word, wg.rs.simple[i - 1])):
            source, target = dual(source), dual(target)
        scan = nonzero_morphisms(m.field, hom_basis(source, target), MORPHISM_SCAN_BUDGET)
        flags[i] = any(all(mat.rank() == mat.cols for mat in phi.values()) for phi in scan)
    return flags


def assert_membership_matches_the_scan(dq, d, wg, words, base, field):
    seen = set()
    for word in words:
        siws = shifted_simples(wg, word, field)
        for rec in moduli_scan(dq, d, chamber_theta(dq, word, base), field).records:
            flags = exceptional_membership(rec.rep, wg, word, siws)
            assert flags == scan_membership(rec.rep, wg, word, siws), (word, rec.canonical)
            seen.update(flags.values())
    assert seen == {False, True}


@pytest.mark.parametrize("q", (2, 3, 4))
def test_membership_matches_the_morphism_scan_in_every_a2_chamber(q):
    dq, d, wg = a2_setup()
    assert_membership_matches_the_scan(dq, d, wg, A2_CHAMBER_WORDS, BASE_THETA, GF(q))


def test_membership_matches_the_morphism_scan_in_every_a3_chamber():
    dq, d = standard_extended_dynkin("A", 3)
    wg = WeylGroup(finite_root_system(dq, d))
    words = wg.canonical_words()
    assert len(words) == 24
    assert_membership_matches_the_scan(dq, d, wg, words, StabilityParameter((-6, 1, 2, 3)), GF(2))


def test_membership_over_rationals_matches_the_ternary_flags():
    # the 0/1 thin modules read the same over QQ and GF(3): every relation
    # sum lies in {-2, ..., 2}, so it vanishes in both fields or in neither
    dq, d, wg = a2_setup()
    theta = chamber_theta(dq, ())
    siws = {f: shifted_simples(wg, (), f) for f in (QQ, GF(3))}
    flags = []
    for values in itertools.product((0, 1), repeat=len(dq.arrows)):
        mods = []
        for f in (QQ, GF(3)):
            mats = {a.aid: Matrix(f, 1, 1, [[f.from_int(x)]]) for a, x in zip(dq.arrows, values)}
            mods.append(Representation.build(dq, f, d, mats))
        valid = [not m.check_relations() and stability_verdict(m, theta).semistable for m in mods]
        assert valid[0] == valid[1], values
        if valid[0]:
            qq, ternary = (exceptional_membership(m, wg, (), siws[m.field]) for m in mods)
            assert qq == ternary, values
            flags.append(qq)
    assert len(flags) == 8
    assert {i for fl in flags for i, on in fl.items() if on} == {1, 2}


def test_socle_bound_on_fundamental_chamber():
    dq, d, wg = a2_setup()
    f = GF(3)
    theta = chamber_theta(dq, ())
    scan = moduli_scan(dq, d, theta, f)
    for rec in scan.records:
        soc = socle_multiplicities(rec.rep)
        assert sum(soc) <= 2
        assert all(x <= 1 for x in soc)


def test_transported_curve_charts_match_expected_supports():
    # after crossing the first wall, the two curve families live on the
    # frozen arrow supports of the sign-flipped charts
    from ppalg.stability import thin_canonical_values

    dq, d, wg = a2_setup()
    f = GF(3)
    base_theta = chamber_theta(dq, ())
    scan = moduli_scan(dq, d, base_theta, f)

    def supports_after_transport(i):
        s = Representation.simple(dq, f, i)
        out = set()
        for rec in scan.records:
            if hom_dim(s, rec.rep) == 0:
                continue
            moved, _ = apply_word((1,), rec.rep, base_theta)
            values = thin_canonical_values(moved)[1]
            out.add(frozenset(aid for aid, v in values if v != "0"))
        return out

    chart_e1 = {"a1s", "a3s", "a2"}  # reversed first arrow, fixed 0->2, free 1->2
    got_e1 = supports_after_transport(1)
    assert all(s <= chart_e1 and "a3s" in s for s in got_e1)
    assert len(got_e1) == 3
    chart_e2 = {"a1", "a3s", "a2"}
    got_e2 = supports_after_transport(2)
    assert all(s <= chart_e2 and "a2" in s for s in got_e2)
    # the meeting point of the two transported curves uses both fixed arrows
    assert frozenset({"a2", "a3s"}) in got_e1 & got_e2


def test_transported_curves_off_diagonal_example():
    # on the sign-flipped side, members of the second curve that are not on
    # the first curve fail the first membership test
    dq, d, wg = a2_setup()
    f = GF(2)
    word = (1,)
    theta = chamber_theta(dq, word)
    scan = moduli_scan(dq, d, theta, f)
    siws = shifted_simples(wg, word, f)
    flags = {rec.canonical: exceptional_membership(rec.rep, wg, word, siws) for rec in scan.stable_records()}
    only_e2 = [c for c, flag in flags.items() if flag[2] and not flag[1]]
    assert len(only_e2) == f.order  # a projective line minus the meeting point


def test_L_sequences_f2():
    rep = check_L_sequences(GF(2))
    assert rep.all_pass, rep.to_table()


def test_membership_precondition_is_enforced():
    import pytest as _pytest

    from ppalg.errors import PreconditionViolated
    from ppalg.linalg import Matrix

    dq, d, wg = a2_setup()
    f = GF(2)
    # vertex 0 spans a destabilizing submodule, so this is never semistable
    unstable = Representation.build(dq, f, d, {"a2": Matrix(f, 1, 1, [[1]])})
    with _pytest.raises(PreconditionViolated):
        exceptional_membership(unstable, wg, (), shifted_simples(wg, (), f))
    # S1 is zero at vertex 0, so no all-ones parameter has value zero on it
    with _pytest.raises(ShapeError, match="extending vertex"):
        exceptional_membership(Representation.simple(dq, f, 1), wg, (), shifted_simples(wg, (), f))


def test_random_nilpotent_is_nilpotent_and_valid():
    import random

    dq, d, wg = a2_setup()
    f = GF(3)
    rng = random.Random(1)
    for _ in range(20):
        m = random_nilpotent(dq, f, rng, steps=3)
        assert m.check_relations() == []
        assert m.is_nilpotent()


def test_run_suite_with_field_override():
    rep = run_suite("zerogen", field_order=3)
    assert rep.all_pass
    # A2 at delta has 141 relation-satisfying thin modules over GF(3), 28 over GF(2)
    assert [case.key for case in rep.cases] == ["three-way mismatches over 141 modules"]


SUITE_FUNCTIONS = {
    "figure2": "figure2_report",
    "chs": "check_stability_characterization",
    "zerogen": "zerogen_suite",
    "roundtrip": "roundtrip_suite",
    "coxeter": "coxeter_suite",
    "dimlaw": "dimlaw_suite",
    "cbform": "cbform_suite",
    "walls": "walls_suite",
    "rootlaw": "rootlaw_suite",
    "Lseq": "check_L_sequences",
}


def test_run_suite_all_calls_every_replaced_suite_function(monkeypatch):
    import ppalg.verify as verify

    calls = []
    for suite, attr in SUITE_FUNCTIONS.items():

        def fake(*args, suite=suite, **kwargs):
            calls.append((suite, args, kwargs))
            return verify.SuiteReport(suite=suite)

        monkeypatch.setattr(verify, attr, fake)
    verify.run_suite("all")
    assert list(dict.fromkeys(suite for suite, _, _ in calls)) == list(SUITE_FUNCTIONS)
    assert verify.SUITE_NAMES == ("all", *SUITE_FUNCTIONS)
    orders = {}
    for suite, args, kwargs in calls:
        orders.setdefault(suite, []).append(args[0].order if args else kwargs)
    assert orders["chs"] == [2] * 6 + [3] * 6
    assert orders["walls"] == [2, 3, 4]
    assert orders["dimlaw"] == [{"seed": 7}] and orders["rootlaw"] == [{"seed": 3}]


# -- golden digests of the nilpotent samples ------------------------------------


def sampled_modules_digest(monkeypatch, suite, seed):
    """The sha256 of the JSON of every module ``random_nilpotent`` returns while one sampling suite runs."""
    import ppalg.verify as verify

    h = hashlib.sha256()
    draw = verify.random_nilpotent

    def recording(*args, **kwargs):
        m = draw(*args, **kwargs)
        h.update(json.dumps(m.to_json(), sort_keys=True).encode())
        return m

    monkeypatch.setattr(verify, "random_nilpotent", recording)
    run = getattr(verify, SUITE_FUNCTIONS[suite])
    assert (run() if seed is None else run(seed=seed)).all_pass
    return h.hexdigest()


# pins which modules each seed draws: the verify report prints only counts
SAMPLED_MODULES_SHA256 = {
    ("dimlaw", None): "f37f43c9ddf98569597102503b517a1c046bc1cea611d675a71d7f51cf891c0a",
    ("dimlaw", 8447): "bf389fd8d75e737b4a646cea3091d4fa40ca7b0cca95f86759f800946f878be6",
    ("cbform", None): "154559edc8f58e662f2f41fb9a6432c4492d2855279a1bd92b5e99836b1ee799",
    ("cbform", 8447): "1396f3c8a9017c022e943777c684e9c55dd58fac94c2867b3f32d0766b96439d",
}


@pytest.mark.parametrize("suite, seed", list(SAMPLED_MODULES_SHA256))
def test_sampled_nilpotent_modules_match_their_golden_digest(monkeypatch, suite, seed):
    assert sampled_modules_digest(monkeypatch, suite, seed) == SAMPLED_MODULES_SHA256[suite, seed]


def test_verify_imports_no_private_name_of_the_library():
    # the suites once read thin modules through stability._thin_points and _pattern_verdict
    tree = ast.parse(Path(verify_module.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ppalg"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []

"""Verification suites for the Kleinian chamber geometry.

Most suites center on the three-vertex cycle, where every module of the
imaginary-root dimension vector can be enumerated over a small finite field;
the dimension-law, form-identity and root-law suites also sample the
four-tail star shape.  Chamber parameters are always the integer vectors
obtained by acting with the chamber words on the all-ones tail, (-2,1,1) on
Ã2, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional, Sequence

from .errors import PreconditionViolated, UsageError
from .fields import GF, Field
from .hom import (
    bilinear_form,
    ext1_dim_via_complex,
    ext1_space,
    extension_from_cocycle,
    extension_splits,
    retraction_exists,
)
from .quiver import DoubleQuiver, standard_extended_dynkin
from .rep import (
    Representation,
    combination,
    hom_basis,
    hom_dim,
    is_isomorphic,
    morphism_is_injective,
    quotient_by_map,
)
from .reflection import ShiftedModule, apply_word, compute_siw, reflect_minus, reflect_plus
from .stability import enumerate_thin_reps, moduli_scan, stability_verdict, thin_canonical_values
from .weyl import (
    StabilityParameter,
    WeylGroup,
    apply_word_to_theta,
    chamber_label,
    chamber_word,
    finite_root_system,
    reflect_dimvec,
)

# the words of a2_setup()[2].canonical_words(), in its order, for callers that hold no Weyl group
A2_CHAMBER_WORDS = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))
BASE_THETA = StabilityParameter((-2, 1, 1))
DIMLAW_SAMPLES = 200  # random nilpotents per quiver in dimlaw
CBFORM_SAMPLES = 30  # modules per quiver in cbform, checked on all ordered pairs
COXETER_MIN_SAMPLES = 50  # semistable thin modules coxeter must find
DEFAULT_SEEDS = {"dimlaw": 7, "cbform": 11, "rootlaw": 3}  # of the sampling suites, when no seed is given

# Frozen six-chamber data: images of the two simple roots, in simple-root
# coordinates, for every chamber word of the rank-two cycle case.
EXPECTED_WDELTA = {
    (): ((1, 0), (0, 1)),
    (1,): ((-1, 0), (1, 1)),
    (2,): ((1, 1), (0, -1)),
    (2, 1): ((-1, -1), (1, 0)),
    (1, 2): ((0, 1), (-1, -1)),
    (1, 2, 1): ((0, -1), (-1, 0)),
}

@dataclass
class SuiteCase:
    key: str
    expected: object
    got: object

    @property
    def passed(self) -> bool:
        return self.expected == self.got

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "expected": _literal(self.expected),
            "got": _literal(self.got),
            "pass": self.passed,
        }


def _literal(value) -> str:
    """repr(), with a set's members sorted so the text does not follow string hashing."""
    if isinstance(value, set) and value:
        return "{" + ", ".join(sorted(repr(x) for x in value)) + "}"
    return repr(value)


@dataclass
class SuiteReport:
    suite: str
    cases: list = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)

    def add(self, key: str, expected, got) -> None:
        self.cases.append(SuiteCase(key=key, expected=expected, got=got))

    def extend(self, other: "SuiteReport") -> None:
        self.cases.extend(other.cases)
        self.meta.update(other.meta)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def counts(self) -> tuple[int, int]:
        passed = sum(1 for c in self.cases if c.passed)
        return passed, len(self.cases)

    def to_json(self) -> dict:
        passed, total = self.counts
        return {
            "suite": self.suite,
            "passed": passed,
            "total": total,
            "all_pass": self.all_pass,
            "meta": dict(sorted(self.meta.items())),
            "cases": [c.to_json() for c in self.cases],
        }

    def to_table(self) -> str:
        passed, total = self.counts
        lines = [f"suite {self.suite}: {passed}/{total} checks passed"]
        for c in self.cases:
            if not c.passed:
                lines.append(f"  FAIL {c.key}: expected {c.expected!r}, got {c.got!r}")
        return "\n".join(lines)


def a2_setup():
    dq, d = standard_extended_dynkin("A", 2)
    rs = finite_root_system(dq, d)
    return dq, d, WeylGroup(rs)


def d4_setup():
    dq, d = standard_extended_dynkin("D", 4)
    rs = finite_root_system(dq, d)
    return dq, d, WeylGroup(rs)


def chamber_theta(dq: DoubleQuiver, word: Sequence[int], base: StabilityParameter = BASE_THETA) -> StabilityParameter:
    return apply_word_to_theta(dq, word, base)


def chambers(wg: WeylGroup):
    """(word, label, theta_w) for each chamber word of ``wg.canonical_words()``, theta_w from the all-ones tail."""
    base = StabilityParameter.from_tail(wg.rs.d, [1] * wg.rank)
    for word in wg.canonical_words():
        yield word, chamber_label(word), chamber_theta(wg.rs.dq, word, base)


# -- random nilpotent modules -------------------------------------------------


def _random_coeffs(field: Field, rng: random.Random, count: int) -> list:
    if field.is_finite:
        coeffs = [rng.randrange(field.order) for _ in range(count)]
    else:
        coeffs = [field.from_int(rng.randint(-3, 3)) for _ in range(count)]
    if all(c == field.zero() for c in coeffs):
        coeffs[0] = field.one()
    return coeffs


def random_nilpotent(dq: DoubleQuiver, field: Field, rng: random.Random, steps: int) -> Representation:
    """A random nilpotent module, built as iterated extensions of simples."""
    m = Representation.simple(dq, field, rng.randrange(dq.vertex_count))
    for _ in range(steps):
        j = rng.randrange(dq.vertex_count)
        s = Representation.simple(dq, field, j)
        top, bottom = (m, s) if rng.random() < 0.5 else (s, m)
        ext = ext1_space(top, bottom)
        if ext.dim == 0:
            m = m.direct_sum(s)
            continue
        coeffs = _random_coeffs(field, rng, ext.dim)
        cocycle = combination(field, ext.cocycle_basis, coeffs)
        m = extension_from_cocycle(top, bottom, cocycle)
    return m


# -- membership in exceptional curves ----------------------------------------


def shifted_simples(wg: WeylGroup, word: Sequence[int], field: Field) -> dict[int, ShiftedModule]:
    """The shifted simple ``compute_siw(wg, word, i, field)`` of every finite vertex i."""
    return {i: compute_siw(wg, word, i, field) for i in range(1, wg.rank + 1)}


def exceptional_membership(
    m: Representation, wg: WeylGroup, word: Sequence[int], siws: Mapping[int, ShiftedModule]
) -> dict[int, bool]:
    """Whether a semistable module lies on each transported exceptional curve.

    One flag per finite vertex i, read against S = ``siws[i].module``, from
    ``shifted_simples(wg, word, m.field)``: Hom(S, m) != 0, or
    Hom(m, S) != 0 when S sits in degree 1.  On the wall of the chamber where
    S has value zero, S is stable and m semistable, so a nonzero map S -> m
    is injective and one m -> S onto (King, Quart. J. Math. 45, 1994).  The
    module's membership in the chamber category is verified once first,
    against the transported all-ones parameter.
    """
    ones = StabilityParameter.from_tail(m.dims, [1] * wg.rank)
    verdict = stability_verdict(m, chamber_theta(m.dq, word, ones))
    if not verdict.semistable:
        raise PreconditionViolated(f"module not semistable: {verdict.status}")
    flags = {}
    for i, siw in siws.items():
        s = siw.module
        flags[i] = (hom_dim(m, s) if siw.degree else hom_dim(s, m)) != 0
    return flags


# -- suites -------------------------------------------------------------------


def check_stability_characterization(field: Field, word: Sequence[int]) -> SuiteReport:
    """Semistability versus hom-vanishing against the shifted simples, exhaustively."""
    dq, d, wg = a2_setup()
    theta = chamber_theta(dq, word)
    report = SuiteReport(suite=f"chs[{chamber_label(word)},q={field.order}]")
    report.meta[f"theta {chamber_label(word)}"] = theta.format()
    siws = shifted_simples(wg, word, field)
    mismatches = 0
    total = 0
    for rep in enumerate_thin_reps(dq, d, field):
        total += 1
        lhs = stability_verdict(rep, theta).semistable
        rhs = all((hom_dim(s.module, rep) if s.degree else hom_dim(rep, s.module)) == 0 for s in siws.values())
        if lhs != rhs:
            mismatches += 1
    report.add(f"mismatches over {total} modules", 0, mismatches)
    return report


def figure2_report(field: Field) -> SuiteReport:
    """Per-chamber sign patterns, shift degrees, curve sizes and intersections."""
    dq, d, wg = a2_setup()
    report = SuiteReport(suite=f"figure2[q={field.order}]")
    adjacent = dq.cartan[1][2] < 0
    for word, label, theta in chambers(wg):
        report.meta[f"theta {label}"] = theta.format()
        expected_roots = EXPECTED_WDELTA[word]
        got_roots = tuple(wg.act_on_root(word, root) for root in wg.rs.simple)
        report.add(f"{label} transported simple system", expected_roots, got_roots)
        siws = shifted_simples(wg, word, field)
        for i, siw in siws.items():
            expected_degree = 0 if all(c >= 0 for c in expected_roots[i - 1]) else 1
            report.add(f"{label} degree of shifted simple {i}", expected_degree, siw.degree)
        scan = moduli_scan(dq, d, theta, field)
        flags = [exceptional_membership(rec.rep, wg, word, siws) for rec in scan.records]
        sizes = tuple(sum(f[i] for f in flags) for i in siws)
        both = sum(f[1] and f[2] for f in flags)
        report.add(f"{label} curve sizes (q+1 classes each)", (field.order + 1,) * wg.rank, sizes)
        report.add(f"{label} intersection class count", 1, both)
        report.add(f"{label} curves meet iff vertices adjacent", adjacent, both > 0)
    return report


def zerogen_suite(field: Field) -> SuiteReport:
    """Fundamental-chamber membership, zero-generation and hom-vanishing agree."""
    dq, d, _ = a2_setup()
    report = SuiteReport(suite=f"zerogen[q={field.order}]")
    simples = [Representation.simple(dq, field, i) for i in range(1, dq.vertex_count)]
    mismatches = 0
    total = 0
    for rep in enumerate_thin_reps(dq, d, field):
        total += 1
        in_s1 = stability_verdict(rep, BASE_THETA).semistable
        zero_gen = rep.is_zero_generated()
        hom_vanish = all(hom_dim(rep, s) == 0 for s in simples)
        if not (in_s1 == zero_gen == hom_vanish):
            mismatches += 1
    report.add(f"three-way mismatches over {total} modules", 0, mismatches)
    return report


def dimlaw_suite(seed: int = DEFAULT_SEEDS["dimlaw"]) -> SuiteReport:
    """Reflected dimension vectors follow the simple reflection when defect is zero."""
    report = SuiteReport(suite="dimlaw")
    for tag, setup in (("A2", a2_setup), ("D4", d4_setup)):
        dq, d, _ = setup()
        field = GF(3)
        rng = random.Random(seed)
        simples = [Representation.simple(dq, field, v) for v in range(dq.vertex_count)]
        bad = 0
        zero_defect = 0
        defect_mismatch = 0
        for _ in range(DIMLAW_SAMPLES):
            m = random_nilpotent(dq, field, rng, steps=rng.randrange(2, 5))
            i = rng.randrange(dq.vertex_count)
            for func, hom_pair in (
                (reflect_plus, lambda: hom_dim(m, simples[i])),
                (reflect_minus, lambda: hom_dim(simples[i], m)),
            ):
                res = func(i, m)
                if res.defect != hom_pair():
                    defect_mismatch += 1
                if res.defect == 0:
                    zero_defect += 1
                    if res.module.dims != reflect_dimvec(dq, i, m.dims):
                        bad += 1
        report.add(f"{tag} dims-law violations", 0, bad)
        report.add(f"{tag} defect/hom mismatches", 0, defect_mismatch)
        report.add(f"{tag} zero-defect cases nonvacuous", True, zero_defect > 0)
    return report


def roundtrip_suite(field: Field) -> SuiteReport:
    """Opposite reflections invert each other and preserve the verdict class."""
    dq, d, wg = a2_setup()
    report = SuiteReport(suite=f"roundtrip[q={field.order}]")
    thetas = [theta for _, _, theta in chambers(wg)]
    thetas += [StabilityParameter((-1, 0, 1)), StabilityParameter((-1, 1, 0))]
    bad_iso = bad_status = 0
    checked = strictly = 0
    for rep in enumerate_thin_reps(dq, d, field):
        for theta in thetas:
            verdict = stability_verdict(rep, theta)
            if not verdict.semistable:
                continue
            for i in range(1, dq.vertex_count):
                if theta[i] == 0:
                    continue
                checked += 1
                if verdict.status == "StrictlySemistable":
                    strictly += 1
                n, th2 = apply_word((i,), rep, theta)
                if stability_verdict(n, th2).status != verdict.status:
                    bad_status += 1
                back, th3 = apply_word((i,), n, th2)
                if th3 != theta or not is_isomorphic(back, rep):
                    bad_iso += 1
    report.add(f"round-trip failures over {checked} cases", 0, bad_iso)
    report.add("verdict transport failures", 0, bad_status)
    report.add("strictly semistable cases exercised", True, strictly > 0)
    return report


def coxeter_suite() -> SuiteReport:
    """Involution and braid relations of the functors on semistable samples."""
    dq, d, _ = a2_setup()
    report = SuiteReport(suite="coxeter")
    theta = BASE_THETA  # entries at 1, 2 and their sum are all nonzero
    samples = []
    for q in (2, 3, 5):
        samples += [rep for rep in enumerate_thin_reps(dq, d, GF(q)) if stability_verdict(rep, theta).semistable]
    report.add(f"sample count at least {COXETER_MIN_SAMPLES}", True, len(samples) >= COXETER_MIN_SAMPLES)
    bad_invol = bad_braid = 0
    for rep in samples:
        for i in range(1, dq.vertex_count):
            m2, th2 = apply_word((i, i), rep, theta)
            if th2 != theta or not is_isomorphic(m2, rep):
                bad_invol += 1
        b1, t1 = apply_word((1, 2, 1), rep, theta)
        b2, t2 = apply_word((2, 1, 2), rep, theta)
        if t1 != t2 or not is_isomorphic(b1, b2):
            bad_braid += 1
    report.add(f"involution failures over {len(samples)} samples", 0, bad_invol)
    report.add("braid relation failures", 0, bad_braid)
    return report


def cbform_suite(seed: int = DEFAULT_SEEDS["cbform"]) -> SuiteReport:
    """Exact form identity on all pairs from nilpotent samples of both types."""
    report = SuiteReport(suite="cbform")
    for tag, setup in (("A2", a2_setup), ("D4", d4_setup)):
        dq, d, _ = setup()
        field = GF(3)
        rng = random.Random(seed)
        mods = [random_nilpotent(dq, field, rng, steps=rng.randrange(1, 4)) for _ in range(CBFORM_SAMPLES)]
        hom = [[hom_dim(m, n) for n in mods] for m in mods]
        ext = [[ext1_dim_via_complex(m, n) for n in mods] for m in mods]
        bad = 0
        asym = 0
        for i, m in enumerate(mods):
            for j, n in enumerate(mods):
                if bilinear_form(dq, m.dims, n.dims) != hom[i][j] - ext[i][j] + hom[j][i]:
                    bad += 1
                if ext[i][j] != ext[j][i]:
                    asym += 1
        report.add(f"{tag} identity failures over {CBFORM_SAMPLES * CBFORM_SAMPLES} pairs", 0, bad)
        report.add(f"{tag} extension-dimension asymmetries", 0, asym)
    return report


def walls_suite(field: Field) -> SuiteReport:
    """Equal stable class counts across chambers, with an explicit bijection."""
    dq, d, wg = a2_setup()
    report = SuiteReport(suite=f"walls[q={field.order}]")
    stable = {word: moduli_scan(dq, d, theta, field).stable_records() for word, _, theta in chambers(wg)}
    report.add("equal stable counts across chambers", 1, len({len(records) for records in stable.values()}))
    _, _, base_theta = next(chambers(wg))
    base = stable.pop(())
    for word, records in stable.items():
        label = chamber_label(word)
        moved = [apply_word(word, rec.rep, base_theta) for rec in base]
        if any(chamber_word(dq, d, theta) != word for theta in {th for _, th in moved}):
            report.add(f"{label} parameter transport", True, False)
            continue
        tags = [thin_canonical_values(n) for n, _ in moved]
        target_tags = {rec.canonical for rec in records}
        report.add(f"{label} transport injective", len(base), len(set(tags)))
        report.add(f"{label} transport onto stable classes", target_tags, set(tags))
    return report


def rootlaw_suite(seed: int = DEFAULT_SEEDS["rootlaw"]) -> SuiteReport:
    """Shift degrees and signed dimension vectors of the shifted simples."""
    report = SuiteReport(suite="rootlaw")
    field = GF(2)
    wg2, wg4 = a2_setup()[2], d4_setup()[2]
    cases = (
        ("A2", wg2, wg2.canonical_words(), "all 6 words"),
        ("D4", wg4, random.Random(seed).sample(wg4.canonical_words(), 20), "20 sampled words"),
    )
    for tag, wg, words, label in cases:
        bad = 0
        for word in words:
            for i, siw in shifted_simples(wg, word, field).items():
                root = wg.act_on_root(word, wg.rs.simple[i - 1])
                if (siw.degree == 0) != all(c >= 0 for c in root):
                    bad += 1
                if wg.rs.project(siw.signed_dims()) != root:
                    bad += 1
        report.add(f"{tag} degree/sign law violations ({label})", 0, bad)
    return report


def check_L_sequences(field: Field) -> SuiteReport:
    """Sub and quotient exceptional sequences through every curve member."""
    dq, d, _ = a2_setup()
    report = SuiteReport(suite=f"Lseq[q={field.order}]")
    scan = moduli_scan(dq, d, BASE_THETA, field)
    members = 0
    for i in range(1, dq.vertex_count):
        simple_i = Representation.simple(dq, field, i)
        e_i = dq.unit(i)
        for rec in scan.stable_records():
            n = rec.rep
            maps = hom_basis(simple_i, n)
            if not maps:
                continue
            members += 1
            key = f"E{i} member {dict(rec.canonical[1])}"
            report.add(f"{key}: dim Hom(S_i, N)", 1, len(maps))
            ext_n_si = ext1_space(n, simple_i)
            report.add(f"{key}: dim Ext1(N, S_i)", 1, ext_n_si.dim)
            embedding = maps[0]
            if not morphism_is_injective(embedding):
                report.add(f"{key}: embedding injective", True, False)
                continue
            # quotient side 0 -> S_i -> N -> L- -> 0, then extension side 0 -> S_i -> L+ -> N -> 0
            l_minus = quotient_by_map(n, embedding)
            l_plus = extension_from_cocycle(n, simple_i, ext_n_si.cocycle_basis[0])
            for side, module, dims, splits in (
                ("L-", l_minus, d - e_i, retraction_exists(simple_i, n, embedding)),
                ("L+", l_plus, d + e_i, extension_splits(n, simple_i, l_plus)),
            ):
                report.add(f"{key}: {side} dims", tuple(dims), tuple(module.dims))
                report.add(
                    f"{key}: {side} zero-generated nilpotent",
                    (True, True),
                    (module.is_zero_generated(), module.is_nilpotent()),
                )
                report.add(f"{key}: {side} sequence non-split", False, splits)
    report.add("curve members found", (dq.vertex_count - 1) * (field.order + 1), members)
    return report


# Every suite in the order ``--suite all`` runs it.  An entry holds the orders
# of the fields the suite runs over by default, empty for a suite with fixed
# fields, and maps one field (None for a fixed-field suite) and the seed (its
# ``DEFAULT_SEEDS`` entry when none is given) to its reports; it looks the
# suite function up in this module when it runs.
SUITES = {
    "figure2": ((2, 3), lambda f, seed: [figure2_report(f)]),
    "chs": ((2, 3), lambda f, seed: [check_stability_characterization(f, w) for w, _, _ in chambers(a2_setup()[2])]),
    "zerogen": ((2, 3), lambda f, seed: [zerogen_suite(f)]),
    "roundtrip": ((2, 3), lambda f, seed: [roundtrip_suite(f)]),
    "coxeter": ((), lambda f, seed: [coxeter_suite()]),
    "dimlaw": ((), lambda f, seed: [dimlaw_suite(seed=seed)]),
    "cbform": ((), lambda f, seed: [cbform_suite(seed=seed)]),
    "walls": ((2, 3, 4), lambda f, seed: [walls_suite(f)]),
    "rootlaw": ((), lambda f, seed: [rootlaw_suite(seed=seed)]),
    "Lseq": ((2, 3), lambda f, seed: [check_L_sequences(f)]),
}
SUITE_NAMES = ("all", *SUITES)


def run_suite(
    name: str,
    field_order: Optional[int] = None,
    seed: Optional[int] = None,
) -> SuiteReport:
    """Dispatch a named verification suite; unknown names raise UsageError.

    ``field_order`` replaces the fields of the suites that take one; naming it
    for a single suite with fixed fields raises UsageError.  ``seed`` reaches
    the sampling suites (dimlaw, cbform, rootlaw); each has its own default
    in ``DEFAULT_SEEDS`` when it is None.
    """
    if name not in SUITE_NAMES:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    fields = None if field_order is None else [GF(field_order)]
    if fields and name != "all" and not SUITES[name][0]:
        takes = ", ".join(suite for suite, (orders, _) in SUITES.items() if orders)
        raise UsageError(f"suite {name} has fixed fields; --field applies to all and to {takes}")
    report = SuiteReport(suite=name)
    for suite, (orders, reports) in SUITES.items():
        if name in (suite, "all"):
            for f in (fields or [GF(q) for q in orders]) if orders else [None]:
                for part in reports(f, DEFAULT_SEEDS.get(suite) if seed is None else seed):
                    report.extend(part)
    return report

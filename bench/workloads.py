"""The three workloads: set-up from a seed, one unit of work, and its gates.

Each workload is a closed loop with one client: an operation starts only
after the previous one has finished.  A unit is a fixed set of operations
(one full verify run, one pass over every chamber, one pass over every
pair), so every unit does the same work and unit times can be compared.

The library is reached only through its public functions, looked up on the
module objects at call time so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import gates

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))


class OpLog:
    """Attempted and failed operations, per-operation latency and items done.

    Workloads time their operations with ``clock``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.items = 0

    def record(self, seconds: float, ok: bool, items: int, start=None) -> None:
        """One operation that took ``seconds``; ``start`` defaults to just now minus that."""
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.latencies.append(seconds)
        self.starts.append(self.clock() - seconds if start is None else start)
        self.items += items

    def rescale_since(self, first: int, factor_near) -> None:
        """Rescale each latency from index ``first`` on by ``factor_near(start, end)``."""
        for i in range(first, len(self.latencies)):
            start, seconds = self.starts[i], self.latencies[i]
            self.latencies[i] = seconds * factor_near(start, start + seconds)


# -- verify-all ---------------------------------------------------------------


class VerifyAll:
    """`ppalg verify --suite all --emit json` through the CLI entry point."""

    name = "verify-all"

    def setup(self, P, seed: int):
        for tag, n in (("A", 2), ("D", 4)):
            dq, d = P.quiver.standard_extended_dynkin(tag, n)
            P.weyl.WeylGroup(P.weyl.finite_root_system(dq, d))
        return {"seed": seed, "expected": EXPECTED["verify-all"]}

    def unit(self, P, state, log: OpLog) -> None:
        argv = ["verify", "--suite", "all", "--emit", "json", "--seed", str(state["seed"])]
        out, err = io.StringIO(), io.StringIO()
        t0 = log.clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = P.cli.main(argv)
        elapsed = log.clock() - t0
        expected = state["expected"]
        ok = gates.verify_report_ok(code, out.getvalue(), expected["report_sha256"])
        log.record(elapsed, ok, expected["checks"])


# -- thin-scan ----------------------------------------------------------------

THIN_FIELDS = (2, 3, 4, 5)


def thin_variety_size(q: int) -> int:
    """Relation-satisfying thin A2 modules of dimension (1,1,1) over GF(q).

    The relation at each vertex is linear in the products of opposite arrow
    values, which gives (q-1)^4 + (2q-1)^3 solutions; the count does not
    depend on how the library finds them.
    """
    return (q - 1) ** 4 + (2 * q - 1) ** 3


def random_chamber_theta(P, rs, base, rng: random.Random):
    """A seeded random generic parameter in the chamber of ``base``."""
    target = P.weyl.chamber_of(rs, base)
    while True:
        tail = [Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(2)]
        theta = P.weyl.StabilityParameter([-(tail[0] + tail[1])] + tail)
        if P.weyl.is_generic(rs, theta) and P.weyl.chamber_of(rs, theta) == target:
            return theta


class ThinScan:
    """Thin moduli scans of A2, delta = (1,1,1), in all six chambers over GF(2..5)."""

    name = "thin-scan"

    def setup(self, P, seed: int):
        dq, d = P.quiver.standard_extended_dynkin("A", 2)
        rs = P.weyl.finite_root_system(dq, d)
        rng = random.Random(seed)
        chambers = []
        for word in P.verify.A2_CHAMBER_WORDS:
            base = P.verify.chamber_theta(dq, word)
            chambers.append((P.weyl.chamber_label(word), random_chamber_theta(P, rs, base, rng)))
        fields = [(q, P.fields.GF(q)) for q in THIN_FIELDS]
        return {"dq": dq, "d": d, "chambers": chambers, "fields": fields, "expected": EXPECTED["thin-scan"]}

    def unit(self, P, state, log: OpLog) -> None:
        # one operation is one chamber swept over every field
        expected = state["expected"]
        PpalgError = P.errors.PpalgError
        for label, theta in state["chambers"]:
            ok = True
            items = 0
            elapsed = 0.0
            for q, field in state["fields"]:
                t0 = log.clock()
                try:
                    scan = P.stability.moduli_scan(state["dq"], state["d"], theta, field)
                    csv_text = scan.to_csv()
                except PpalgError:
                    elapsed += log.clock() - t0
                    ok = False
                    continue
                elapsed += log.clock() - t0
                ok = ok and gates.scan_ok(
                    csv_text,
                    len(scan.stable_records()),
                    expected["csv_sha256"][str(q)][label],
                    expected["stable_classes"][str(q)],
                )
                items += thin_variety_size(q)
            log.record(elapsed, ok, items)


# -- nilpotent-homext -----------------------------------------------------------

# Total dimension of each module of a (quiver, field) group.  The simples and
# the order of the extensions come from SHAPE_SEED, so every seed gives
# systems of the same sizes and only the cocycle coefficients change.  Two
# modules of the largest size per group put several pairs of similar cost
# near the tail percentile, so the tail does not hang on a single pair.
HOMEXT_SIZES = {"A2": (3, 5, 6, 8, 8), "D4": (3, 6, 9, 11, 11)}
HOMEXT_FIELDS = ("GF(2)", "GF(3)", "GF(4)", "QQ")
SHAPE_SEED = 20100824
# The cost of the largest rational and GF(4) modules moves most with the
# coefficients drawn (rational entries grow during elimination; over GF(4)
# the hom spaces vary), so the seed would move the whole pass with them.
# Those fields stop at smaller modules.
FIELD_MAX_DIM = {"QQ": 8, "GF(4)": 9}


def _field(P, label: str):
    return P.fields.QQ if label == "QQ" else P.fields.GF(int(label[3:-1]))


def nilpotent_module(P, dq, field, steps, rng: random.Random):
    """Iterated extensions of simples, with random nonzero cocycle coefficients.

    ``steps`` lists (vertex, on_top) pairs: the simple at the vertex goes on
    top of the module built so far, or below it.  The benchmark builds its
    own modules, so its inputs stay put when the library's sampling helpers
    change.
    """
    Rep, Matrix = P.rep.Representation, P.linalg.Matrix
    if field.is_finite:
        pool = list(field.nonzero_elements())
    else:
        pool = [field.from_int(k) for k in (-1, 1)]  # small entries, as over the finite fields
    m = Rep.simple(dq, field, steps[0][0])
    for j, on_top in steps[1:]:
        s = Rep.simple(dq, field, j)
        top, bottom = (s, m) if on_top else (m, s)
        ext = P.hom.ext1_space(top, bottom)
        if ext.dim == 0:
            m = m.direct_sum(s)
            continue
        coeffs = [pool[rng.randrange(len(pool))] for _ in range(ext.dim)]
        cocycle = {}
        for aid, first in ext.cocycle_basis[0].items():
            acc = Matrix.zero(field, first.rows, first.cols)
            for c, phi in zip(coeffs, ext.cocycle_basis):
                acc = acc.add(phi[aid].scale(c))
            cocycle[aid] = acc
        m = P.hom.extension_from_cocycle(top, bottom, cocycle)
    return m


class NilpotentHomExt:
    """hom_dim both ways, ext1_dim_via_complex and ext1_space on ordered pairs."""

    name = "nilpotent-homext"

    def setup(self, P, seed: int):
        shape_rng = random.Random(SHAPE_SEED)
        rng = random.Random(seed)
        pairs = []
        for qlabel, (tag, n) in (("A2", ("A", 2)), ("D4", ("D", 4))):
            dq, _ = P.quiver.standard_extended_dynkin(tag, n)
            for flabel in HOMEXT_FIELDS:
                field = _field(P, flabel)
                mods = []
                for size in HOMEXT_SIZES[qlabel]:
                    size = min(size, FIELD_MAX_DIM.get(flabel, size))
                    steps = [(shape_rng.randrange(dq.vertex_count), shape_rng.random() < 0.5) for _ in range(size)]
                    mods.append(nilpotent_module(P, dq, field, steps, rng))
                for i, m in enumerate(mods):
                    for j, n_ in enumerate(mods):
                        form = P.hom.bilinear_form(dq, m.dims, n_.dims)
                        pairs.append(((qlabel, flabel, i, j), m, n_, form))
        return {"pairs": pairs}

    def unit(self, P, state, log: OpLog) -> None:
        hom_dim, ext_complex, ext_space = P.rep.hom_dim, P.hom.ext1_dim_via_complex, P.hom.ext1_space
        PpalgError = P.errors.PpalgError
        ext = {}
        bad = set()
        timing = {}
        for key, m, n, form in state["pairs"]:
            t0 = log.clock()
            try:
                hom_mn = hom_dim(m, n)
                hom_nm = hom_dim(n, m)
                ext_mn = ext_complex(m, n)
                space_dim = ext_space(m, n).dim
            except PpalgError:
                timing[key] = (t0, log.clock() - t0)
                bad.add(key)
                continue
            timing[key] = (t0, log.clock() - t0)
            ext[key] = ext_mn
            if not gates.pair_laws_ok(form, hom_mn, hom_nm, ext_mn, space_dim):
                bad.add(key)
        # Ext^1 symmetry needs both orders of a pair, so it is checked per pass
        for (quiver, field, i, j), value in ext.items():
            mirror = (quiver, field, j, i)
            if mirror in ext and ext[mirror] != value:
                bad.add((quiver, field, i, j))
        for key, _, _, _ in state["pairs"]:
            start, seconds = timing[key]
            log.record(seconds, key not in bad, 1, start=start)


WORKLOADS = {w.name: w for w in (VerifyAll(), ThinScan(), NilpotentHomExt())}

"""Reflection functors at a vertex, word composites, and shifted simples.

The plus functor replaces the vertex space at i by the kernel of the map
bundling the star matrices of the arrows leaving i.  The cokernel-side minus
functor is the dual of that kernel-side construction.  Both run one body on
the row data of the 2 deg(i) blocks at the arrows incident to i: the plus
functor reads them as they are, the minus functor reads them transposed (the
blocks of the dual module there) and transposes back only the blocks it
changes, so no whole-module dual is formed and both share one echelon, one
lift and the same checks.  Both are total linear constructions; the
torsion-pair semantics (zero defect) are enforced only by the
word-application wrapper.  The tilting ideals themselves are never
materialized.

The body is split in two.  The step at i (the echelon, the null rows, the
two products and the lift check) depends only on the field, n = dims[i], the
relation terms at i, the rows of the blocks at i and the side.  The functor
at i discards the gauge at i, so words and the suites meet the same step
again and again: it is memoized, bounded by ``REFLECT_MEMO``.  The step
also proves, once per distinct step, that the blocks it returns satisfy the
relation at i and keep every composite through i, which is all the relations
of the new module can read of them.  The range check, the refusal of an input
that fails its relations (the verdict it was built with, read before the
step, so a refused call reads none) and the new module, built with the
empty verdict the step proved, run on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DichotomyError,
    InternalInvariantError,
    NotGenericStep,
    PreconditionViolated,
    RangeError,
)
from .fields import Field
from .linalg import Matrix, _dense, _mul_rows, _transpose, null_space
from .quiver import DimensionVector
from .rep import Representation, _relation_sum, _require_relations
from .stability import stability_verdict
from .weyl import StabilityParameter, WeylGroup, _reflect_numerators, apply_word_to_dimvec

REFLECT_MEMO = 256  # reflection steps kept memoized; a verify run repeats 99% of its steps within 256 others


@dataclass(frozen=True)
class ReflectResult:
    module: Representation
    defect: int


@dataclass(frozen=True)
class ShiftedModule:
    """A module together with a stalk degree in {0, 1}."""

    module: Representation
    degree: int

    def signed_dims(self) -> DimensionVector:
        sign = -1 if self.degree else 1
        return sign * self.module.dims

    def to_json(self) -> dict:
        return {"degree": self.degree, "module": self.module.to_json()}


def _reflect(i: int, m: Representation, transposed: bool) -> ReflectResult:
    """The kernel construction at i: the memoized ``_reflect_step`` on the blocks at i, then the module.

    Not memoized, so done on every call, hit or miss: the range check of i,
    then, so that a refused call reads no step, the refusal of an input whose
    relation verdict (``Representation._violated``, decided when it was
    built) is not empty, with PreconditionViolated naming the failing
    vertices, since the fault is the caller's, and the new blocks written
    over a copy of m's.  The result is built with the empty verdict, which
    is proved, not assumed: the step checked that the relation at i holds on
    the blocks it returns and that every composite M_a . M_{a*} through i is
    unchanged, and the relation at any other vertex reads only blocks away
    from i and those composites, so it is the input's.  No vertex of the
    result is summed.
    """
    dq = m.dq
    if not 0 <= i < dq.vertex_count:
        raise RangeError(f"vertex {i} is not a vertex of the quiver")
    _require_relations("the input module", m)
    n = m.dims[i]
    terms = dq.relations[i].terms
    ids = [aid for _, a, s in terms for aid in (a, s)]
    blocks, k, defect = _reflect_step(m.field, n, terms, tuple(m.mats[aid].data for aid in ids), transposed)
    mats = dict(m.mats)
    mats.update(zip(ids, blocks))
    dims = m.dims if k == n else DimensionVector(k if v == i else d for v, d in enumerate(m.dims))
    return ReflectResult(module=Representation(dq, m.field, dims, mats, _violated=()), defect=defect)


@functools.lru_cache(maxsize=REFLECT_MEMO)
def _reflect_step(f: Field, n: int, terms: tuple, rows: tuple, transposed: bool) -> tuple[tuple, int, int]:
    """The new blocks at i, k = the new dimension at i, and the defect; memoized.

    ``terms`` are those of ``dq.relations[i]`` (signs and arrow ids), n is
    dims[i], and ``rows`` holds the row data of M_a and of M_{a*} for each
    term in turn; the new blocks come back in the same order.  M_a has one
    row, n long, per dimension at its target, so n and the rows fix both
    shapes, also where a block has no rows.  The key holds the field
    because fields share entry codes (GF(2) and GF(4)).

    For each arrow a leaving i the step reads the pair (N_a, N_{a*}^T):
    (M_a, M_{a*}^T) for the plus functor, and the same pair swapped,
    (M_{a*}^T, M_a), for the minus one, where N is the dual module.  The
    blocks eps(a) N_{a*} side by side form the in-map; the null rows that
    ``linalg.null_space`` reads off the tails of its one reduced echelon form
    span the new space K, and the new N_a are row slices of K.  The
    one product W = (N_a stacked) . (N_{a*} side by side) carries every
    incoming block at once; K is the identity on the free rows, so the
    unique lift through K is the free rows of W, and K times the lift must
    give W back, else InternalInvariantError (a raise is not memoized).  The
    new pairs are written back the same way, swapped on the minus side.

    The returned blocks are checked as ``_reflect`` writes them, so a
    slicing, transposing or side-swap slip cannot pass: each composite
    through i, M'_a . M'_{a*}, must equal M_a . M_{a*} (a diagonal block of
    W, read back through the lift), and the relation at i,
    sum eps(a) M'_{a*} . M'_a (``rep._relation_sum``), must vanish, else
    InternalInvariantError.
    """
    stack_out, stack_in, signed, widths = [], [], [], []  # N_a and N_{a*}^T over the terms, stacked
    for (sign, _, _), arrow, star in zip(terms, rows[::2], rows[1::2]):
        pair = (arrow, _transpose(star, len(arrow)))
        out_rows, in_rows = pair[::-1] if transposed else pair
        stack_out += out_rows
        stack_in += in_rows
        signed += in_rows if sign > 0 else [tuple(map(f.neg, row)) for row in in_rows]
        widths.append(len(in_rows))
    cols = len(stack_in)
    tails, pivots = Matrix._of(f, n, cols, _transpose(signed, n))._reduced()
    null = _dense(f, null_space(f, tails, pivots, cols), cols)
    k = len(null)
    pivot_set = set(pivots)
    w = _mul_rows(f, stack_out, _transpose(stack_in, n), cols)
    lift = [row for c, row in enumerate(w) if c not in pivot_set]
    if _mul_rows(f, _transpose(null, cols), lift, cols) != w:  # K . lift
        raise InternalInvariantError("incoming map does not land in the kernel")

    blocks = []
    pos = 0
    for width in widths:
        # the new N_a and N_{a*}^T, each the transpose of a k x width slice
        proj = [row[pos : pos + width] for row in null]
        part = [row[pos : pos + width] for row in lift]
        to_a, to_s = (part, proj) if transposed else (proj, part)
        blocks += (Matrix._of(f, width, k, _transpose(to_a, width)), Matrix._of(f, k, width, to_s))
        pos += width

    for arrow, star, new_arrow, new_star in zip(rows[::2], rows[1::2], blocks[::2], blocks[1::2]):
        width = len(arrow)
        if _mul_rows(f, new_arrow.data, new_star.data, width) != _mul_rows(f, arrow, star, width):
            raise InternalInvariantError("reflection broke the preprojective relations")
    new_terms = [(sign, a.data, s.data) for (sign, _, _), a, s in zip(terms, blocks[::2], blocks[1::2])]
    if any(map(any, _relation_sum(f, k, new_terms))):
        raise InternalInvariantError("reflection broke the preprojective relations")
    return tuple(blocks), k, n - len(pivots)


def reflect_plus(i: int, m: Representation) -> ReflectResult:
    """Kernel-side reflection at vertex i.

    ``_reflect`` reads the pairs (M_a, M_{a*}^T) of the arrows a leaving i
    as row tuples.  The new space at i is the kernel of the blocks
    eps(a) M_{a*} side by side, read off the null rows of one echelon; the
    defect is its cokernel dimension.  The arrows leaving i become the
    slices of that canonical kernel basis, and the arrows entering i become
    the free rows of the one product (M_a stacked) . (M_{a*} side by side),
    its lift through the kernel.
    """
    return _reflect(i, m, False)


def reflect_minus(i: int, m: Representation) -> ReflectResult:
    """Cokernel-side reflection at vertex i.

    D(I_i (x) M) = Hom(I_i, DM), so this is the kernel construction on the
    transposed blocks of the arrows at i, with the changed blocks transposed
    back; no whole-module dual is formed.  The defect is the kernel dimension
    of the map g_i that collects eps(a*) M_{a*} over the arrows a entering i.
    """
    return _reflect(i, m, True)


def apply_word(
    word: Sequence[int],
    m: Representation,
    theta: StabilityParameter,
) -> tuple[Representation, StabilityParameter]:
    """Apply the composite reflection functor of a word to a semistable module.

    Letters are consumed right to left.  At each letter the sign of the
    current parameter entry picks the plus or minus functor, the parameter is
    reflected, and a nonzero defect (a torsion precondition failure) aborts.
    The parameter runs through the letters as its cleared numerators, whose
    denominator a reflection keeps, and is built once, for the return.
    """
    verdict = stability_verdict(m, theta)
    if not verdict.semistable:
        raise PreconditionViolated(f"input module is not semistable: {verdict.status}")
    cur, numerators = m, theta.numerators
    for letter in reversed(tuple(word)):
        if not 0 <= letter < m.dq.vertex_count:
            raise RangeError(f"letter {letter} is not a vertex")
        sign = numerators[letter]  # the sign of the entry: the denominator is positive
        if sign == 0:
            raise NotGenericStep(f"parameter entry at vertex {letter} is zero")
        res = reflect_plus(letter, cur) if sign > 0 else reflect_minus(letter, cur)
        if res.defect != 0:
            raise PreconditionViolated(
                f"defect {res.defect} at letter {letter}; module left the torsion class"
            )
        cur = res.module
        numerators = _reflect_numerators(m.dq, letter, numerators)
    return cur, StabilityParameter._of(numerators, theta.denominator)


def compute_siw(wg: WeylGroup, word: Sequence[int], i: int, field: Field) -> ShiftedModule:
    """The shifted simple obtained by deriving the simple at i across a word.

    The word must be reduced and use only finite-Weyl letters, 1..rank;
    ``wg.is_reduced`` refuses any other letter with RangeError.  Each step
    either keeps degree (zero defect) or shifts once (kernel module vanished);
    any other outcome raises DichotomyError.
    """
    word = tuple(word)
    dq = wg.rs.dq
    if not wg.is_reduced(word):
        raise RangeError(f"word {word} is not reduced")
    if not 1 <= i <= wg.rank:
        raise RangeError("simple index must be a finite-Weyl vertex")
    cur = Representation.simple(dq, field, i)
    degree = 0
    for letter in reversed(word):
        res = reflect_plus(letter, cur)
        module_zero = res.module.is_zero_module()
        if res.defect == 0 and not module_zero:
            cur = res.module
        elif module_zero and res.defect > 0:
            cur = Representation.build(dq, field, res.defect * dq.unit(letter))
            degree += 1
            if degree > 1:
                raise DichotomyError("stalk left the degree 0..1 range")
        else:
            raise DichotomyError(
                f"step at letter {letter} had defect {res.defect} and a "
                f"{'zero' if module_zero else 'nonzero'} kernel module"
            )
    out = ShiftedModule(module=cur, degree=degree)
    if out.signed_dims() != apply_word_to_dimvec(dq, word, dq.unit(i)):
        raise InternalInvariantError("shifted simple dims disagree with the word action")
    return out

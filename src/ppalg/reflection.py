"""Reflection functors at a vertex, word composites, and shifted simples.

The plus functor replaces the vertex space at i by the kernel of the map
bundling the star matrices of the arrows leaving i.  The cokernel-side minus
functor is the dual of the kernel-side construction: the plus functor on the
vector-space dual, dualized back, so both share one body and its checks.
Both are total linear constructions; the torsion-pair semantics (zero defect)
are enforced only by the word-application wrapper.  The tilting ideals
themselves are never materialized.
"""

from __future__ import annotations

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
from .linalg import Matrix, _null_rows
from .quiver import DimensionVector
from .rep import Representation
from .stability import stability_verdict
from .weyl import StabilityParameter, WeylGroup, apply_word_to_dimvec, reflect_theta


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


def reflect_plus(i: int, m: Representation) -> ReflectResult:
    """Kernel-side reflection at vertex i.

    The new space at i is the kernel of ``m.in_map(i)``, which sums
    eps(a) M_{a*} over the arrows a leaving i; the defect is its cokernel
    dimension.  The arrows leaving i become the summand projections of the
    kernel: row slices of its canonical basis, the null rows of one rref,
    transposed.  An incoming arrow b becomes ``m.out_map(i) . M_b`` lifted
    through the kernel.  That basis is the identity on the free rows, so the
    lift is unique and is the free rows of the product; one more product
    checks that it lifts.  The result is built from these trusted blocks
    directly, and its relations are re-checked.
    """
    if not 0 <= i < m.dq.vertex_count:
        raise RangeError(f"vertex {i} is not a vertex of the quiver")
    dq = m.dq
    f = m.field
    in_map = m.in_map(i)
    out_map = m.out_map(i)
    R, pivots = in_map.rref()
    kernel = _null_rows(R, pivots).transpose()
    k = kernel.cols
    pivot_set = set(pivots)
    free = [c for c in range(in_map.cols) if c not in pivot_set]
    defect = m.dims[i] - len(pivots)

    mats = dict(m.mats)
    pos = 0
    for _, aid, _ in dq.relations[i].terms:
        # outgoing arrow c: project the kernel to the c summand
        rows = m.mats[aid].rows
        mats[aid] = Matrix._of(f, rows, k, kernel.data[pos : pos + rows])
        pos += rows
    for b in dq.arrows_in(i):
        w = out_map.mul(m.mats[b.aid])
        lift = Matrix._of(f, k, w.cols, [w.data[r] for r in free])
        if kernel.mul(lift) != w:
            raise InternalInvariantError("incoming map does not land in the kernel")
        mats[b.aid] = lift
    dims = DimensionVector(k if v == i else d for v, d in enumerate(m.dims))
    result = Representation(dq, f, dims, mats)
    if result.check_relations():
        raise InternalInvariantError("reflection broke the preprojective relations")
    return ReflectResult(module=result, defect=defect)


def reflect_minus(i: int, m: Representation) -> ReflectResult:
    """Cokernel-side reflection at vertex i: the dual of the kernel-side construction.

    D(I_i (x) M) = Hom(I_i, DM), so this is reflect_plus on the dual module,
    dualized back.  The defect is the kernel dimension of the map g_i that
    collects eps(a*) M_{a*} over the arrows a entering i.
    """
    res = reflect_plus(i, m.dual())
    return ReflectResult(module=res.module.dual(), defect=res.defect)


def apply_word(
    word: Sequence[int],
    m: Representation,
    theta: StabilityParameter,
) -> tuple[Representation, StabilityParameter]:
    """Apply the composite reflection functor of a word to a semistable module.

    Letters are consumed right to left.  At each letter the sign of the
    current parameter entry picks the plus or minus functor, the parameter is
    reflected, and a nonzero defect (a torsion precondition failure) aborts.
    """
    verdict = stability_verdict(m, theta)
    if not verdict.semistable:
        raise PreconditionViolated(f"input module is not semistable: {verdict.status}")
    cur, th = m, theta
    for letter in reversed(tuple(word)):
        if not 0 <= letter < m.dq.vertex_count:
            raise RangeError(f"letter {letter} is not a vertex")
        sign = th[letter]
        if sign == 0:
            raise NotGenericStep(f"parameter entry at vertex {letter} is zero")
        res = reflect_plus(letter, cur) if sign > 0 else reflect_minus(letter, cur)
        if res.defect != 0:
            raise PreconditionViolated(
                f"defect {res.defect} at letter {letter}; module left the torsion class"
            )
        cur = res.module
        th = reflect_theta(m.dq, letter, th)
    return cur, th


def compute_siw(wg: WeylGroup, word: Sequence[int], i: int, field: Field) -> ShiftedModule:
    """The shifted simple obtained by deriving the simple at i across a word.

    The word must be reduced and use only finite-Weyl letters.  Each step
    either keeps degree (zero defect) or shifts once (kernel module vanished);
    any other outcome raises DichotomyError.
    """
    word = tuple(word)
    dq = wg.rs.dq
    if any(not 1 <= letter <= wg.rank for letter in word):
        raise RangeError("shifted simples need letters in the finite Weyl range")
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
    expected = apply_word_to_dimvec(dq, word, dq.unit(i))
    sign = -1 if degree else 1
    if sign * cur.dims != expected:
        raise InternalInvariantError("shifted simple dims disagree with the word action")
    return ShiftedModule(module=cur, degree=degree)

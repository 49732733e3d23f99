"""Quivers, double quivers with the star involution, and preprojective relations.

The constructors for the standard extended Dynkin shapes fix one orientation
once and for all (the algebra does not depend on it) and record it through the
stable arrow ids in the JSON output.  All objects are immutable after
construction and freely shareable; a double quiver's ``plans`` is a memo.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConnectivityError, LoopError, RangeError, ShapeError, UsageError
from .fields import _is_int

# The double builds a vertex x vertex Cartan matrix and vertex x arrow indexes,
# so the vertex count is capped before anything is allocated.
MAX_VERTICES = 64


class DimensionVector(tuple):
    """Integer vector indexed by vertices, with componentwise arithmetic.

    Entries must be ints, not bools, and both sides of + and - of one length, or ShapeError.
    """

    def __new__(cls, entries: Iterable[int]):
        out = super().__new__(cls, entries)
        if not all(_is_int(x) for x in out):
            raise ShapeError("dimension vector entries must be integers")
        return out

    def __add__(self, other):
        if len(self) != len(other):
            raise ShapeError(f"vectors of {len(self)} and {len(other)} entries")
        return DimensionVector(a + b for a, b in zip(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + DimensionVector(-b for b in other)

    def __rsub__(self, other):
        return DimensionVector(-a for a in self) + other

    def __mul__(self, c):
        if not _is_int(c):
            raise ShapeError(f"a dimension vector scales by an integer, not {c!r}")
        return DimensionVector(c * a for a in self)

    __rmul__ = __mul__

    @staticmethod
    def unit(n: int, i: int) -> "DimensionVector":
        return DimensionVector(1 if j == i else 0 for j in range(n))

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self)

    def total(self) -> int:
        return sum(self)


@dataclass(frozen=True)
class Arrow:
    aid: str
    src: int
    dst: int


class Quiver:
    """A finite connected quiver without loops."""

    def __init__(self, vertex_count: int, arrows: Sequence[Arrow]):
        if not 1 <= vertex_count <= MAX_VERTICES:
            raise RangeError(f"a quiver needs 1 to {MAX_VERTICES} vertices, got {vertex_count}")
        arrows = tuple(arrows)
        for a in arrows:
            if not (0 <= a.src < vertex_count and 0 <= a.dst < vertex_count):
                raise RangeError(f"arrow {a.aid} endpoint out of range")
            if a.src == a.dst:
                raise LoopError(f"arrow {a.aid} is a loop at vertex {a.src}")
        ids = [a.aid for a in arrows]
        if len(set(ids)) != len(ids):
            raise RangeError("duplicate arrow ids")
        self.vertex_count = vertex_count
        self.arrows = arrows
        self._check_connected()

    def _check_connected(self) -> None:
        reached = {0}
        while grown := {v for a in self.arrows if {a.src, a.dst} & reached for v in (a.src, a.dst)} - reached:
            reached |= grown
        if len(reached) != self.vertex_count:
            raise ConnectivityError("underlying graph is not connected")


@dataclass(frozen=True)
class PreprojectiveRelation:
    """The cycle sum at one vertex: sum of epsilon(a) * (a then a*) over arrows out."""

    vertex: int
    terms: tuple[tuple[int, str, str], ...]  # (sign, first arrow id, then star id)


class DoubleQuiver:
    """The double of a quiver: each arrow a gains a reverse a* with sign -1.

    ``relations[v]`` is the preprojective relation at v, its terms in the
    order of the arrows out of v in ``arrows``.  It is the one place that
    pairs arrows with their stars and signs; every relation-side
    construction reads it.
    """

    def __init__(self, base: Quiver):
        self.base = base
        self.vertex_count = base.vertex_count
        arrows = list(base.arrows)
        star: dict[str, str] = {}
        epsilon: dict[str, int] = {}
        for a in base.arrows:
            sid = a.aid + "s"
            arrows.append(Arrow(sid, a.dst, a.src))
            star[a.aid] = sid
            star[sid] = a.aid
            epsilon[a.aid] = 1
            epsilon[sid] = -1
        if len({a.aid for a in arrows}) != len(arrows):
            raise RangeError("duplicate arrow ids")  # a star id a + "s" that another arrow already has
        self.arrows = tuple(arrows)
        self.star = star
        self.epsilon = epsilon
        self._in = {v: tuple(a for a in self.arrows if a.dst == v) for v in range(self.vertex_count)}
        self.relations = tuple(
            PreprojectiveRelation(v, tuple((epsilon[a.aid], a.aid, star[a.aid]) for a in self.arrows if a.src == v))
            for v in range(self.vertex_count)
        )
        self._units = tuple(
            DimensionVector.unit(self.vertex_count, i) for i in range(self.vertex_count)
        )
        # the Cartan matrix 2I - A of the double: every form and reflection reads it
        cartan = [[2 * (i == j) for j in range(self.vertex_count)] for i in range(self.vertex_count)]
        for a in self.arrows:
            cartan[a.src][a.dst] -= 1
        self.cartan = tuple(tuple(row) for row in cartan)
        self.plans: dict = {}  # the hom and Ext system layouts of rep.system_plan: they live and die with the quiver

    def __eq__(self, other):
        """One quiver: the same vertex count and arrows, which is equal ``to_json()``."""
        return self is other or (
            isinstance(other, DoubleQuiver)
            and self.vertex_count == other.vertex_count
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertex_count, self.arrows))

    def arrows_in(self, v: int) -> tuple[Arrow, ...]:
        return self._in[v]

    def bilinear(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        """The symmetric form alpha^T C beta of the Cartan matrix C.

        A vector whose length is not the vertex count raises ShapeError.
        """
        n = self.vertex_count
        if len(alpha) != n or len(beta) != n:
            raise ShapeError(f"vectors of {len(alpha)} and {len(beta)} entries, the quiver has {n} vertices")
        return sum(a * c * b for a, row in zip(alpha, self.cartan) for c, b in zip(row, beta))

    def cartan_row(self, i: int) -> tuple[int, ...]:
        return self.cartan[self._vertex(i)]

    def unit(self, i: int) -> DimensionVector:
        return self._units[self._vertex(i)]

    def _vertex(self, i: int) -> int:
        if not 0 <= i < self.vertex_count:
            raise RangeError(f"vertex {i} is not a vertex of the quiver")
        return i

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        arrows = []
        for a in self.arrows:
            entry = {"id": a.aid, "src": a.src, "dst": a.dst}
            if self.epsilon[a.aid] == -1:
                entry["star_of"] = self.star[a.aid]
            arrows.append(entry)
        return {"vertices": self.vertex_count, "arrows": arrows}

    @staticmethod
    def from_json(data: dict) -> "DoubleQuiver":
        """Parse a quiver payload; a malformed one raises UsageError naming its JSON path."""
        if not isinstance(data, dict):
            raise UsageError("quiver: expected an object")
        vertices, arrows = data.get("vertices"), data.get("arrows")
        if not _is_int(vertices):
            raise UsageError(f"quiver.vertices: expected an integer, got {vertices!r}")
        if not isinstance(arrows, list) or not all(
            isinstance(a, dict) and isinstance(a.get("id"), str) and _is_int(a.get("src")) and _is_int(a.get("dst"))
            for a in arrows
        ):
            raise UsageError("quiver.arrows: expected a list of objects with a string id and integer src and dst")
        entries = [(a["id"], a["src"], a["dst"], "star_of" in a) for a in arrows]
        base_arrows = [Arrow(aid, src, dst) for aid, src, dst, starred in entries if not starred]
        dq = build_double(Quiver(vertices, base_arrows))
        declared = {(aid, src, dst) for aid, src, dst, _ in entries}
        rebuilt = {(a.aid, a.src, a.dst) for a in dq.arrows}
        if declared != rebuilt:
            raise RangeError("arrow list is not the double of its base arrows")
        return dq

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for v in range(self.vertex_count):
            lines.append(f"  {v};")
        for a in self.arrows:
            sign = "+" if self.epsilon[a.aid] > 0 else "-"
            lines.append(f'  {a.src} -> {a.dst} [label="{a.aid} ({sign})"];')
        lines.append("}")
        return "\n".join(lines)


def build_double(q: Quiver) -> DoubleQuiver:
    """Double a loop-free connected quiver."""
    return DoubleQuiver(q)


def _edge_quiver(edges: list[tuple[int, int]], n: int) -> Quiver:
    """The quiver on vertices 0..n with arrow a{k} along the k-th edge (source, target)."""
    arrows = [Arrow(f"a{k + 1}", s, t) for k, (s, t) in enumerate(edges)]
    return Quiver(n + 1, arrows)


def standard_extended_dynkin(type_tag: str, n: int) -> tuple[DoubleQuiver, DimensionVector]:
    """The fixed extended Dynkin double quiver and its imaginary root vector.

    Vertex 0 is always the extending vertex.  Orientations: cycle arrows point
    away from vertex 0 (type A); arm arrows point toward the branch vertex
    (types D and E).
    """
    tag = type_tag.upper()
    if tag == "A":
        if not 1 <= n < MAX_VERTICES:
            raise RangeError(f"type A needs 1 <= n < {MAX_VERTICES}")
        # vertices 0..n around a cycle, arrows pointing away from 0
        q = _edge_quiver([(k - 1, k) for k in range(1, n + 1)] + [(n, 0)], n)
        d = DimensionVector([1] * (n + 1))
    elif tag == "D":
        if not 4 <= n < MAX_VERTICES:
            raise RangeError(f"type D needs 4 <= n < {MAX_VERTICES}")
        # vertices: 0,1 tails at the left node 2; spine 2..n-2; tails n-1, n at n-2
        edges = [(0, 2), (1, 2)]
        edges += [(k, k + 1) for k in range(2, n - 2)]
        edges += [(n - 1, n - 2), (n, n - 2)]
        q = _edge_quiver(edges, n)
        d = DimensionVector([1, 1] + [2] * (n - 3) + [1, 1])
    elif tag == "E" and n == 6:
        edges = [(0, 1), (1, 2), (4, 3), (3, 2), (6, 5), (5, 2)]
        q = _edge_quiver(edges, 6)
        d = DimensionVector([1, 2, 3, 2, 1, 2, 1])
    elif tag == "E" and n == 7:
        edges = [(0, 1), (1, 2), (2, 3), (6, 5), (5, 4), (4, 3), (7, 3)]
        q = _edge_quiver(edges, 7)
        d = DimensionVector([1, 2, 3, 4, 3, 2, 1, 2])
    elif tag == "E" and n == 8:
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (7, 6), (6, 5), (8, 5)]
        q = _edge_quiver(edges, 8)
        d = DimensionVector([1, 2, 3, 4, 5, 6, 4, 2, 3])
    else:
        raise RangeError(f"unsupported extended Dynkin type {type_tag}{n}")
    return build_double(q), d


def parse_type(text: str) -> tuple[str, int]:
    """Parse a type label like 'A2', 'Ã2', 'D4' or 'E8'.

    Only decoration is dropped: combining marks (the tilde of 'Ã2'), '~', '_'
    and spaces around the letter and the number.  Any other character, a digit
    group split by anything, or a letter other than an ASCII A, D or E raises
    RangeError; only ASCII digits count, so 'A²' and 'A٢' are refused.
    """
    # each decoration character becomes a space, so it may sit between the parts but never split one
    s = "".join(" " if unicodedata.combining(ch) or ch in "~_" else ch for ch in unicodedata.normalize("NFD", text))
    match = re.fullmatch(r"\s*([ADEade])\s*([0-9]+)\s*", s)
    try:
        if match is not None:
            return match[1].upper(), int(match[2])
    except ValueError:  # more digits than int() converts
        pass
    raise RangeError(f"cannot parse quiver type {text!r}")

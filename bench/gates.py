"""Correctness gates: each workload's outputs are checked before they count.

A gate returns True only for a correct output.  The benchmark counts every
operation whose gate fails, or that raises the library's error type, as a
failed operation.
"""

from __future__ import annotations

import ast
import hashlib
import json


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _render(value) -> str:
    """repr() with every set printed in sorted order.

    Set reprs in the verify report follow string hashing, which changes from
    one interpreter process to the next; sorting makes the text a function of
    the contents alone.
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_render(x) for x in value)) + "}"
    if isinstance(value, tuple):
        inner = ", ".join(_render(x) for x in value)
        return "(" + inner + ("," if len(value) == 1 else "") + ")"
    return repr(value)


def _canonical_scalar_text(text: str) -> str:
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text
    return _render(value)


def canonical_report(report_text: str) -> str:
    """The verify JSON report with set reprs in every case sorted."""
    report = json.loads(report_text)
    for case in report["cases"]:
        for key in ("expected", "got"):
            case[key] = _canonical_scalar_text(case[key])
    return json.dumps(report, sort_keys=True)


def verify_report_ok(exit_code: int, report_text: str, expected_sha256: str) -> bool:
    """Exit status 0 and the canonical report digest equal to the frozen one."""
    if exit_code != 0:
        return False
    try:
        canonical = canonical_report(report_text)
    except (ValueError, KeyError, TypeError):
        return False
    return sha256(canonical) == expected_sha256


def scan_ok(csv_text: str, stable_count: int, expected_sha256: str, expected_stable: int) -> bool:
    """CSV bytes equal to the frozen digest and the common stable class count."""
    return sha256(csv_text) == expected_sha256 and stable_count == expected_stable


def pair_laws_ok(form: int, hom_mn: int, hom_nm: int, ext_mn: int, ext_space_dim: int) -> bool:
    """The form identity, and agreement of ext1_space with the complex."""
    return form == hom_mn - ext_mn + hom_nm and ext_space_dim == ext_mn

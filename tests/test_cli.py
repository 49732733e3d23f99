import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ppalg
import ppalg.verify as verify
from ppalg.cli import main
from ppalg.errors import UsageError
from ppalg.fields import GF
from ppalg.linalg import Matrix
from ppalg.quiver import standard_extended_dynkin
from ppalg.rep import MAX_MODULE_DIM, Representation
from ppalg.verify import random_nilpotent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_curve_member(tmp_path, a=1, b=0):
    dq, d = standard_extended_dynkin("A", 2)
    f = GF(2)
    mats = {
        "a1": Matrix(f, 1, 1, [[a]]),
        "a3s": Matrix(f, 1, 1, [[1]]),
        "a2s": Matrix(f, 1, 1, [[b]]),
    }
    rep = Representation.build(dq, f, d, mats)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json(), sort_keys=True), encoding="utf-8")
    return path


def test_chamber_fundamental(capsys):
    code, out, _ = run(capsys, "chamber", "--type", "A2", "--theta", "-2,1,1")
    assert code == 0
    assert out.strip() == "C(1)"


def test_chamber_with_tail(capsys):
    code, out, _ = run(capsys, "chamber", "--type", "A2", "--theta-tail", "1,1")
    assert code == 0
    assert out.strip() == "C(1)"


def test_chamber_longest_element(capsys):
    code, out, _ = run(capsys, "chamber", "--type", "A2", "--theta", "2,-1,-1")
    assert code == 0
    assert out.strip() == "C(s1s2s1)"


def test_chamber_on_large_rank_types(capsys):
    # chamber prints the descent word at every rank, with no Weyl group built
    code, out, _ = run(capsys, "chamber", "--type", "E6", "--theta-tail", "1,1,1,1,1,1")
    assert code == 0 and out.strip() == "C(1)"
    # digits-base-seven tail cannot vanish on any root with coordinates < 7
    tail = ",".join(str(7**k) for k in range(8))
    code, out, _ = run(capsys, "chamber", "--type", "E8", "--theta-tail", tail)
    assert code == 0 and out.strip() == "C(1)"
    code, out, _ = run(
        capsys, "chamber", "--type", "E8", "--theta-tail", "-1,1,1,1,1,1,1,1"
    )
    assert code == 2  # lies on a wall


def test_chamber_at_the_vertex_cap_builds_no_root_system(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("chamber built the root system")

    monkeypatch.setattr(ppalg.cli, "finite_root_system", refuse)
    code, out, _ = run(capsys, "chamber", "--type", "D63", "--theta-tail", ",".join(["1"] * 63))
    assert code == 0 and out.strip() == "C(1)"
    # theta negative on every simple root descends through all 63 . 62 positive roots
    code, out, _ = run(capsys, "chamber", "--type", "D63", "--theta-tail", ",".join(["-1"] * 63))
    assert code == 0 and out.strip().count("s") == 63 * 62


def test_quiver_emits_json_and_dot(capsys):
    code, out, _ = run(capsys, "quiver", "--type", "A2")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 3 and payload["d"] == [1, 1, 1]
    code, out, _ = run(capsys, "quiver", "--type", "A2", "--emit", "dot")
    assert code == 0 and out.startswith("digraph")


def test_identical_invocations_identical_bytes(capsys):
    _, out1, _ = run(capsys, "quiver", "--type", "D4")
    _, out2, _ = run(capsys, "quiver", "--type", "D4")
    assert out1 == out2


def test_siw_text_output(capsys):
    code, out, _ = run(capsys, "siw", "--type", "A2", "--word", "1", "--simple", "1")
    assert code == 0
    assert out.strip() == "degree 1, dims (0, 1, 0)"


def test_rep_check_ok_and_violation(capsys, tmp_path):
    path = write_curve_member(tmp_path)
    code, out, _ = run(capsys, "rep-check", str(path))
    assert code == 0 and out.strip() == "ok"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["mats"]["a1s"] = [["1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "rep-check", str(bad))
    assert code == 1 and "violated" in out


@pytest.mark.parametrize("command", ["reflect", "apply", "stability"])
def test_module_commands_reject_files_that_break_the_relations(capsys, tmp_path, command):
    data = json.loads(write_curve_member(tmp_path).read_text(encoding="utf-8"))
    data["mats"]["a1s"] = [["1"]]
    violated = Representation.from_json(data).check_relations()
    assert violated
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, *MODULE_COMMANDS[command], str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"violated vertices: {violated}" in err
    code, out, _ = run(capsys, "rep-check", str(bad))
    assert code == 1 and out.strip() == f"violated vertices: {violated}"


def test_reflect_round_trip_through_files(capsys, tmp_path):
    path = write_curve_member(tmp_path)
    code, out, _ = run(capsys, "reflect", "--vertex", "1", "--dir", "plus", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 0
    reflected = Representation.from_json(payload["module"])
    assert tuple(reflected.dims) == (1, 1, 1)


def test_apply_word_via_cli(capsys, tmp_path):
    path = write_curve_member(tmp_path)
    code, out, _ = run(capsys, "apply", "--word", "1,2,1", "--theta", "-2,1,1", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == "2,-1,-1"
    # the empty word returns the module and theta as they came
    code, out, _ = run(capsys, "apply", "--word", "", "--theta", "-2,1,1", str(path))
    assert code == 0
    assert json.loads(out) == {"module": json.loads(path.read_text(encoding="utf-8")), "theta": "-2,1,1"}


def test_stability_verdict_output(capsys, tmp_path):
    path = write_curve_member(tmp_path)
    code, out, _ = run(capsys, "stability", "--theta", "-2,1,1", str(path))
    assert code == 0 and out.strip() == "Stable"


def test_stability_of_the_zero_module_433_is_prompt(capsys, tmp_path):
    # a scan of every subspace tuple took 17 s; (1, 0, 0) is the first negative dimension vector
    dq, _ = standard_extended_dynkin("A", 2)
    path = tmp_path / "zero-433.json"
    path.write_text(json.dumps(Representation.build(dq, GF(3), (4, 3, 3)).to_json()), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "stability", "--theta", "-3,2,2", str(path))
    assert time.perf_counter() - start < 1
    assert code == 0 and out == "Unstable witness=(1, 0, 0)\n"


def test_scan_outputs(capsys):
    code, out, _ = run(capsys, "scan", "--type", "A2", "--field", "2", "--theta", "-2,1,1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 8
    code, out, _ = run(
        capsys, "scan", "--type", "A2", "--field", "2", "--theta", "-2,1,1", "--emit", "csv"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "zerogen", "--field", "2")
    assert code == 0 and "checks passed" in out


def test_verify_prints_a_failing_case_and_exits_one(capsys, monkeypatch):
    orders, reports = verify.SUITES["zerogen"]

    def with_a_failing_case(f, seed):
        parts = reports(f, seed)
        parts[0].add("planted", 1, 2)
        return parts

    monkeypatch.setitem(verify.SUITES, "zerogen", (orders, with_a_failing_case))
    code, out, _ = run(capsys, "verify", "--suite", "zerogen", "--field", "2")
    assert code == 1
    head, *fails = out.splitlines()
    passed, total = map(int, head.split()[2].split("/"))
    assert head == f"suite zerogen: {passed}/{total} checks passed" and total == passed + 1
    assert fails == ["  FAIL planted: expected 1, got 2"]
    code, out, _ = run(capsys, "verify", "--suite", "zerogen", "--field", "2", "--emit", "json")
    assert code == 1 and json.loads(out)["all_pass"] is False


def test_verify_field_zero_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--suite", "zerogen", "--field", "0")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("suite", ["coxeter", "dimlaw", "cbform", "rootlaw"])
def test_verify_field_on_a_fixed_field_suite_exits_two(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--field", "7")
    assert code == 2 and out == "" and err.startswith("error:")
    assert all(name in err for name in ("figure2", "chs", "zerogen", "roundtrip", "walls", "Lseq"))


def test_verify_figure2_field3_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "figure2", "--field", "3")
    assert code == 0


def test_siw_json_emission(capsys):
    code, out, _ = run(
        capsys, "siw", "--type", "A2", "--word", "1", "--simple", "2", "--emit", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 0
    assert payload["module"]["dims"] == [0, 1, 1]


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "chamber", "--type", "A2")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    code, _, err = run(capsys, "rep-check", "/nonexistent/file.json")
    assert code == 2


def test_chamber_off_the_theta_kernel_exits_two(capsys):
    code, out, err = run(capsys, "chamber", "--type", "A2", "--theta", "1,1,1")
    assert code == 2 and out == "" and err == "error: parameter does not kill the imaginary root vector\n"


def test_malformed_theta_exits_two(capsys):
    code, _, err = run(capsys, "chamber", "--type", "A2", "--theta", "bogus")
    assert code == 2


THETA_FLAGS = {
    "chamber --theta": ["chamber", "--type", "A2", "--theta", "{},1,-1"],
    "chamber --theta-tail": ["chamber", "--type", "A2", "--theta-tail", "1,{}"],
    "scan --theta": ["scan", "--type", "A2", "--field", "2", "--theta", "{},1,-1"],
    "scan --theta-tail": ["scan", "--type", "A2", "--field", "2", "--theta-tail", "1,{}"],
    "stability --theta": ["stability", "--theta", "{},1,-1", "MODULE"],
    "apply --theta": ["apply", "--word", "1", "--theta", "{},1,-1", "MODULE"],
}


# Fraction would expand 1e999999999 into a billion-digit integer
@pytest.mark.parametrize("entry", ["1/0", "x", "1e999999999"])
@pytest.mark.parametrize("flag", sorted(THETA_FLAGS))
def test_theta_entries_that_are_not_rationals_exit_two(capsys, tmp_path, flag, entry):
    path = str(write_curve_member(tmp_path))
    argv = [path if arg == "MODULE" else arg.format(entry) for arg in THETA_FLAGS[flag]]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("theta", ["-2,1", "-2,1,1,0"])
def test_stability_theta_of_wrong_length_exits_two(capsys, tmp_path, theta):
    path = write_curve_member(tmp_path)
    code, out, err = run(capsys, "stability", "--theta", theta, str(path))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("theta", ["-2,1", "-2,1,1,0"])
def test_apply_theta_of_wrong_length_exits_two(capsys, tmp_path, theta):
    path = write_curve_member(tmp_path)
    code, out, err = run(capsys, "apply", "--word", "1", "--theta", theta, str(path))
    assert code == 2 and out == "" and err.startswith("error:")


def test_scan_over_budget_exits_two(capsys):
    code, out, err = run(
        capsys, "scan", "--type", "A2", "--field", "5", "--theta", "-2,1,1", "--budget", "100"
    )
    assert code == 2 and out == "" and err.startswith("error:")


def _ppalg_capped(*argv):
    return _python_capped("-m", "ppalg", *argv)


def _python_capped(*argv):
    # a child with 1 GiB of address space: a search that lists a huge field fails there, not here
    import resource

    src = str(Path(ppalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cap = 1 << 30
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


# p = 0 alone lifts to (2q - 1)^3 tuples; 9,999,991 passes q^1 <= budget but not that
@pytest.mark.parametrize("q", ["2147483647", "9999991"])
@pytest.mark.parametrize("command", [["scan", "--type", "A2", "--theta", "-2,1,1"], ["verify", "--suite", "chs"]])
def test_thin_search_over_a_huge_prime_exits_two_at_once(command, q):
    start = time.perf_counter()
    proc = _ppalg_capped(*command, "--field", q)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2 and proc.stdout == "" and "exceed budget" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 2  # one second for the search, one for the interpreter's start


def test_subspace_search_over_a_huge_prime_lists_no_field(tmp_path):
    # (0, 0, 1) costs one subspace tuple per vector before it; (1, 0, 0) costs q + 1
    dq, _ = standard_extended_dynkin("A", 2)
    path = tmp_path / "zero-211.json"
    path.write_text(json.dumps(Representation.build(dq, GF(2147483647), (2, 1, 1)).to_json()), encoding="utf-8")
    proc = _ppalg_capped("stability", "--theta", "1,-1,-1", str(path))
    assert proc.returncode == 0 and proc.stdout == "Unstable witness=(0, 0, 1)\n", proc.stderr
    proc = _ppalg_capped("stability", "--theta", "-1,1,1", str(path))
    assert proc.returncode == 2 and proc.stdout == "" and "exceed budget" in proc.stderr, proc.stderr


def test_morphism_scan_and_nilpotent_sampling_over_a_huge_prime_list_no_field():
    # both once listed the 2^31-1 elements of the field: MemoryError under the cap
    code = """
import random
from ppalg.fields import GF
from ppalg.quiver import standard_extended_dynkin
from ppalg.rep import Representation, is_isomorphic
from ppalg.verify import random_nilpotent
dq, _ = standard_extended_dynkin("A", 2)
f = GF(2147483647)
s1 = Representation.simple(dq, f, 1)
print(is_isomorphic(s1.direct_sum(s1), s1.direct_sum(s1)))
print(random_nilpotent(dq, f, random.Random(0), 3).dims.total())
"""
    proc = _python_capped("-c", code)
    assert proc.returncode == 0 and proc.stdout == "True\n4\n", proc.stderr


@pytest.mark.parametrize("argv,expected", [(["--seed", "0"], 0), (["--seed", "5"], 5), ([], 7)])
def test_verify_seed_reaches_dimlaw(capsys, monkeypatch, argv, expected):
    import ppalg.verify as verify

    seen = []

    def fake_dimlaw(seed):
        seen.append(seed)
        return verify.SuiteReport(suite="dimlaw")

    monkeypatch.setattr(verify, "dimlaw_suite", fake_dimlaw)
    code, _, _ = run(capsys, "verify", "--suite", "dimlaw", *argv)
    assert code == 0 and seen == [expected]


class ClosedPipe:
    """A stdout whose reader has gone away: the chosen operations raise BrokenPipeError."""

    def __init__(self, fd, failing):
        self.fd = fd
        self.failing = failing

    def write(self, text):
        if "write" in self.failing:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("failing", [("write", "flush"), ("flush",)])
def test_closed_stdout_ends_quietly(capsys, monkeypatch, tmp_path, failing):
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd, failing))
        code = main(["quiver", "--type", "E8", "--emit", "json"])
        monkeypatch.undo()
        assert code == 0
        assert capsys.readouterr().err == ""
        # what is left goes to devnull, so the flush at interpreter exit succeeds
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_verify_json_bytes_do_not_follow_string_hashing():
    # the walls suite reports sets; their text must not depend on PYTHONHASHSEED
    src = str(Path(ppalg.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ppalg", "verify", "--suite", "walls", "--field", "2", "--emit", "json"],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


GOLDEN_SCAN_F2 = """\
a1,a2,a3,a1s,a2s,a3s,status
0,0,0,0,1,1,Stable
0,0,0,1,1,1,Stable
1,0,0,0,0,1,Stable
1,0,0,0,1,1,Stable
1,1,0,0,0,0,Stable
1,1,0,0,0,1,Stable
1,1,1,0,0,0,Stable
1,1,1,1,1,1,Stable
"""


def test_scan_csv_golden_bytes(capsys):
    # frozen canonical output; over GF(2) every nonzero canonical value is 1,
    # so the choice of gauge forest shows only in the digests below
    code, out, _ = run(
        capsys, "scan", "--type", "A2", "--field", "2", "--theta", "-2,1,1", "--emit", "csv"
    )
    assert code == 0
    assert out.replace("\r\n", "\n") == GOLDEN_SCAN_F2


# sha256 of the scan CSV over fields with more than one nonzero value, where
# the canonical values depend on which spanning forest the gauge walk fixes
GOLDEN_SCAN_SHA256 = {
    "A2 --field 5 --theta -2,1,1": "808d0a9f22ed0e11466e4d2fe1d49b9008d12857c764a4f6f9ba580d46d46a7f",
    "A3 --field 3 --theta-tail 1,1,1": "567d35a8b84a9e761d165115bb26cc030110a2449ee4964678bd735b95edeac7",
    # the gauge-slice lift beyond GF(2) and the fundamental chamber: 21 and 28 classes
    "A4 --field 3 --theta-tail 1,1,1,1": "88047fa002363e70a6d4710ae1daa8057b9ec51bd03e0befb89ba3283920b4c7",
    "A3 --field 4 --theta 2,-1,-3,2": "08a0bac4f9fbe4ba3ff7d1d646e9ff1672d8482a285c0c53b37c2771e026d568",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_SCAN_SHA256))
def test_scan_csv_golden_digests(capsys, args):
    code, out, _ = run(capsys, "scan", "--type", *args.split(), "--emit", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SCAN_SHA256[args]


# sha256 of the scan JSON: each class holds its canonical values and its status
GOLDEN_SCAN_JSON_SHA256 = "0fc37b418ddc15bcf91b3ef20048f4610805d888d43afa296f8578e2272e7f08"


def test_scan_json_golden_digest(capsys):
    code, out, _ = run(capsys, "scan", "--type", "A2", "--field", "3", "--theta", "-2,1,1", "--emit", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SCAN_JSON_SHA256


# sha256 of the raw stdout of `ppalg verify --suite all --emit json`
GOLDEN_VERIFY_ALL_SHA256 = "ffab425bf008e87fcc079d1152ee78015419212bb25699fdd9ec946aae148128"


def test_verify_all_json_golden_digest(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--emit", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_VERIFY_ALL_SHA256


# the all-ones A2 module over GF(3), as a file, and the sha256 of the raw
# stdout of one minus reflection and of one word applied to it
ALL_ONES_A2_GF3 = (
    '{"dims": [1, 1, 1], "field": {"kind": "prime", "p": 3}, "mats": {"a1": [["1"]], "a1s": [["1"]], '
    '"a2": [["1"]], "a2s": [["1"]], "a3": [["1"]], "a3s": [["1"]]}, "quiver": {"arrows": '
    '[{"dst": 1, "id": "a1", "src": 0}, {"dst": 2, "id": "a2", "src": 1}, {"dst": 0, "id": "a3", "src": 2}, '
    '{"dst": 0, "id": "a1s", "src": 1, "star_of": "a1"}, {"dst": 1, "id": "a2s", "src": 2, "star_of": "a2"}, '
    '{"dst": 2, "id": "a3s", "src": 0, "star_of": "a3"}], "vertices": 3}}'
)
GOLDEN_REFLECTION_SHA256 = {
    "reflect --vertex 1 --dir minus": "db2dfba45981e0bc742aad181eeeae738722a5f93502c1d1591492910d9432f3",
    "apply --word 1,2,1 --theta -2,1,1": "582e23808a9c3c0bfe7a41619ce08695497c055d016b106c698fc75f350e4295",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_REFLECTION_SHA256))
def test_reflection_commands_golden_digests(capsys, tmp_path, args):
    path = tmp_path / "module.json"
    path.write_text(ALL_ONES_A2_GF3 + "\n", encoding="utf-8")
    code, out, _ = run(capsys, *args.split(), str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_REFLECTION_SHA256[args]


# a non-thin D4 module over GF(3), random_nilpotent(d4, GF(3), random.Random(20), 4)
# with dims (1, 2, 2, 0, 0), as a file, and the sha256 of the raw stdout of
# both reflections at its vertex 2
NONTHIN_D4_GF3 = (
    '{"dims": [1, 2, 2, 0, 0], "field": {"kind": "prime", "p": 3}, "mats": {"a1": [["0"], ["0"]], '
    '"a1s": [["1", "1"]], "a2": [["0", "0"], ["0", "0"]], "a2s": [["0", "1"], ["1", "0"]], "a3": '
    '[[], []], "a3s": [], "a4": [[], []], "a4s": []}, "quiver": {"arrows": [{"dst": 2, "id": "a1", '
    '"src": 0}, {"dst": 2, "id": "a2", "src": 1}, {"dst": 2, "id": "a3", "src": 3}, {"dst": 2, "id": '
    '"a4", "src": 4}, {"dst": 0, "id": "a1s", "src": 2, "star_of": "a1"}, {"dst": 1, "id": "a2s", '
    '"src": 2, "star_of": "a2"}, {"dst": 3, "id": "a3s", "src": 2, "star_of": "a3"}, {"dst": 4, '
    '"id": "a4s", "src": 2, "star_of": "a4"}], "vertices": 5}}'
)
GOLDEN_NONTHIN_REFLECTION_SHA256 = {
    "reflect --vertex 2 --dir plus": "7c580cd64f186e4308d561188a4866e48bb1b6711d10abe07e1f74a30b1bef80",
    "reflect --vertex 2 --dir minus": "b938d2ef2df552e83679a4186cc4375733e02aeeb97cf0d518834f7612f8e9c3",
}


def test_nonthin_module_file_is_the_seeded_sample():
    dq, d = standard_extended_dynkin("D", 4)
    m = random_nilpotent(dq, GF(3), random.Random(20), 4)
    assert m.dims == (1, 2, 2, 0, 0)
    assert json.loads(NONTHIN_D4_GF3) == m.to_json()


@pytest.mark.parametrize("args", sorted(GOLDEN_NONTHIN_REFLECTION_SHA256))
def test_nonthin_reflection_commands_golden_digests(capsys, tmp_path, args):
    path = tmp_path / "module.json"
    path.write_text(NONTHIN_D4_GF3 + "\n", encoding="utf-8")
    code, out, _ = run(capsys, *args.split(), str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_NONTHIN_REFLECTION_SHA256[args]


def test_quiver_json_golden_bytes(capsys):
    code, out, _ = run(capsys, "quiver", "--type", "A2")
    assert code == 0
    assert out.strip() == (
        '{"arrows": [{"dst": 1, "id": "a1", "src": 0}, {"dst": 2, "id": "a2", "src": 1}, '
        '{"dst": 0, "id": "a3", "src": 2}, {"dst": 0, "id": "a1s", "src": 1, "star_of": "a1"}, '
        '{"dst": 1, "id": "a2s", "src": 2, "star_of": "a2"}, '
        '{"dst": 2, "id": "a3s", "src": 0, "star_of": "a3"}], "d": [1, 1, 1], "vertices": 3}'
    )


def curve_member_payload():
    dq, d = standard_extended_dynkin("A", 2)
    f = GF(3)
    mats = {"a1": Matrix(f, 1, 1, [[1]]), "a3s": Matrix(f, 1, 1, [[1]])}
    return Representation.build(dq, f, d, mats).to_json()


def malformed(mats=(), **fields):
    """The curve-member payload with top-level fields and arrow matrices replaced."""
    data = curve_member_payload()
    data.update(fields)
    data["mats"].update(mats)
    return data


MALFORMED_MODULES = {
    "quiver-without-arrows": {"quiver": {"vertices": 3}},
    "json-list": [curve_member_payload()],
    "short-dims": malformed(dims=[1, 1]),
    "unknown-arrow-id": malformed(mats={"b9": [["1"]]}),
    "code-outside-field": malformed(mats={"a1": [["5"]]}),
    "wrong-shape": malformed(mats={"a2s": [["1", "0"]]}),
    "negative-dims": malformed(dims=[1, -1, 1]),
    "field-not-an-object": malformed(field=[]),
    "null-entry": malformed(mats={"a1": [[None]]}),
    "zero-denominator": malformed(field={"kind": "rationals"}, mats={"a1": [["1/0"]]}),
    "exponent-over-QQ": malformed(field={"kind": "rationals"}, mats={"a1": [["1e999999999"]]}),
    # each of these once read as dims (1, 1, 1) or as the entry 1
    "float-dims": malformed(dims=[1, 1.5, 1]),
    "boolean-dims": malformed(dims=[1, True, 1]),
    "string-dims": malformed(dims="111"),
    "float-entry": malformed(mats={"a1": [[1.7]]}),
    "boolean-entry": malformed(mats={"a1": [[True]]}),
    "float-entry-over-QQ": malformed(field={"kind": "rationals"}, mats={"a1": [[0.1]]}),
    "string-row": malformed(mats={"a1": ["1"]}),
    "string-matrix": malformed(mats={"a1": "1"}),
    # a float field parameter once passed as the modulus until pow met it
    "float-modulus": malformed(field={"kind": "prime", "p": 3.0}),
    "float-degree": malformed(field={"kind": "prime-power", "p": 2, "k": 2.0}),
}
# the JSON path each row's error names first; "module" is the payload itself
MALFORMED_PATHS = {
    "quiver-without-arrows": "quiver.arrows",
    "json-list": "module",
    "short-dims": "dims",
    "unknown-arrow-id": "mats.b9",
    "code-outside-field": "mats.a1",
    "wrong-shape": "mats.a2s",
    "negative-dims": "dims",
    "field-not-an-object": "field",
    "null-entry": "mats.a1",
    "zero-denominator": "mats.a1",
    "exponent-over-QQ": "mats.a1",
    "float-dims": "dims",
    "boolean-dims": "dims",
    "string-dims": "dims",
    "float-entry": "mats.a1",
    "boolean-entry": "mats.a1",
    "float-entry-over-QQ": "mats.a1",
    "string-row": "mats.a1",
    "string-matrix": "mats.a1",
    "float-modulus": "field.p",
    "float-degree": "field.k",
}
# file texts the JSON decoder refuses before any payload exists, so the error names the module
MALFORMED_TEXTS = {"nested-arrays": "[" * 200_000 + "]" * 200_000}
MALFORMED_PATHS["nested-arrays"] = "module"
MODULE_COMMANDS = {
    "rep-check": ["rep-check"],
    "reflect": ["reflect", "--vertex", "1", "--dir", "minus"],
    "apply": ["apply", "--word", "1", "--theta", "-2,1,1"],
    "stability": ["stability", "--theta", "-2,1,1"],
}


@pytest.mark.parametrize("command", sorted(MODULE_COMMANDS))
@pytest.mark.parametrize("payload", sorted(MALFORMED_MODULES) + sorted(MALFORMED_TEXTS))
def test_malformed_module_files_exit_two(capsys, tmp_path, command, payload):
    if payload in MALFORMED_TEXTS:
        text = MALFORMED_TEXTS[payload]
    else:
        with pytest.raises(UsageError):
            Representation.from_json(MALFORMED_MODULES[payload])
        text = json.dumps(MALFORMED_MODULES[payload])
    path = tmp_path / "module.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, *MODULE_COMMANDS[command], str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""
    assert err.startswith(f"error: {MALFORMED_PATHS[payload]}: ")


NOT_JSON = {"empty": b"", "text": b"not json", "latin-1": b'{"dims": "\xe9"}'}


@pytest.mark.parametrize("command", sorted(MODULE_COMMANDS))
@pytest.mark.parametrize("content", sorted(NOT_JSON))
def test_module_files_that_are_not_utf8_json_exit_two(capsys, tmp_path, command, content):
    path = tmp_path / "module.json"
    path.write_bytes(NOT_JSON[content])
    code, out, err = run(capsys, *MODULE_COMMANDS[command], str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: module: ")


WORD_COMMANDS = {
    "apply": ["apply", "--theta", "-2,1,1", "--word", "{}", "MODULE"],
    "siw": ["siw", "--type", "A2", "--simple", "1", "--word", "{}"],
}


@pytest.mark.parametrize("word", ["1,x", ",", "1.5"])
@pytest.mark.parametrize("command", sorted(WORD_COMMANDS))
def test_word_letters_that_are_not_integers_exit_two(capsys, tmp_path, command, word):
    path = str(write_curve_member(tmp_path))
    argv = [path if arg == "MODULE" else arg.format(word) for arg in WORD_COMMANDS[command]]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --word: ")


@pytest.mark.parametrize("extra,code", [(0, 0), (1, 2)])
def test_module_total_dimension_is_capped(capsys, tmp_path, extra, code):
    payload = curve_member_payload()
    payload["dims"] = [MAX_MODULE_DIM - 42 + extra, 21, 21]
    payload["mats"] = {}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run(capsys, "rep-check", str(path))[0] == code


def test_reflect_at_a_missing_vertex_exits_two(capsys, tmp_path):
    path = write_curve_member(tmp_path)
    for vertex in ("3", "-1"):
        code, _, err = run(capsys, "reflect", "--vertex", vertex, "--dir", "plus", str(path))
        assert code == 2 and err.startswith("error:")


SCALARS = st.sampled_from(["", "0", "1", "2", "5", "-1", "1/0", "a1", "x"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4) | SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a1", "a1s", "b", "kind", "p"]), inner, max_size=3),
    max_leaves=8,
)
FIELDS = st.sampled_from(["quiver", "field", "dims", "mats"])


def int_paths(value, path=()):
    """The key paths to the integer leaves of a JSON value."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [p for k, v in items for p in int_paths(v, path + (k,))]
    return [path] if type(value) is int else []


@st.composite
def fuzzed_modules(draw):
    """A valid module payload with some fields dropped, replaced, retyped or nested one level down.

    Retyping turns one integer into the equal float (a modulus 3 into 3.0),
    which reads as the same number wherever a float is not rejected.
    """
    data = curve_member_payload()
    for _ in range(draw(st.integers(1, 3))):
        target = data
        key = draw(FIELDS)
        paths = int_paths(data.get(key), (key,))
        if paths and draw(st.booleans()):
            *keys, key = draw(st.sampled_from(paths))
            for k in keys:
                target = target[k]
            target[key] = float(target[key])
            continue
        if key in ("quiver", "mats") and draw(st.booleans()):
            target = data[key] if isinstance(data.get(key), dict) else data
            key = draw(st.sampled_from(["vertices", "arrows", "a1", "a2s", "zz"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(JSON_VALUES)
    return draw(st.sampled_from([data, [data], data.get("mats")]))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(payload=fuzzed_modules())
def test_rep_check_never_tracebacks_on_fuzzed_modules(capsys, tmp_path, payload):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    # a small subspace budget keeps the brute-force verdict on fuzzed dims quick
    for argv in (
        ["rep-check"],
        ["reflect", "--vertex", "1", "--dir", "plus"],
        ["reflect", "--vertex", "1", "--dir", "minus"],
        ["stability", "--budget", "1000", "--theta", "-2,1,1"],
    ):
        code, _, err = run(capsys, *argv, str(path))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error:")

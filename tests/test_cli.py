import contextlib
import io
import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genus_spectrum import HalfInt, mu0, oracle_reduced_spectrum, parse_group
from genus_spectrum.cli import build_parser, run

CLI_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "cli_expected.json"


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_json(capsys):
    code, out, _ = capture(capsys, ["invariants", "2:1,1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == [3, 2, 1]
    assert payload["delta"] == 1
    assert payload["epsilon"] == 1
    assert payload["kulkarni_n"] == "2"
    assert payload["order"] == "8"
    assert payload["decomposition"] == "Z_2 + Z_4"


def test_mu0_json(capsys):
    code, out, _ = capture(capsys, ["mu0", "3:2,9,1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mu0"] == "125"
    assert payload["minimum_genus"] == str(1 + 3**20 * 125)
    assert payload["minimum_genus_factored"] == "1+3^20*125"
    assert payload["attaining_data"] == ["2,9,2;0"]


def test_spectrum_text(capsys):
    code, out, _ = capture(capsys, ["spectrum", "2:0,0,0,1"])
    assert code == 0
    assert "sp = ℕ_0 ∖ {2,3,5}" in out

    code, out, _ = capture(capsys, ["spectrum", "3:1,1"])
    assert "sp = (1+3ℕ_0) ∖ {4,13}" in out
    assert "sp0: min = 0, stable = 5, gaps = {1,4}" in out


def test_spectrum_json(capsys):
    code, out, _ = capture(capsys, ["spectrum", "3:0,1", "--format", "json"])
    payload = json.loads(out)
    assert payload["min"] == "-1"
    assert payload["stable"] == "5"
    assert payload["gaps"] == ["1", "4"]
    assert payload["sp"] == "ℕ_0 ∖ {2,5}"
    code, out, _ = capture(capsys, ["spectrum", "2:1,6,2", "--format", "json"])
    payload = json.loads(out)
    assert payload["min"] == "45/2" and payload["verified_bound"] == "inf"


def test_admissible_text(capsys):
    code, out, _ = capture(capsys, ["admissible", "2:1,1", "--datum", "1,2;0"])
    assert code == 0
    assert out.strip() == "admissible, g=1, g0=0"
    code, out, _ = capture(capsys, ["admissible", "2:0,1", "--datum", "0,1;0"])
    assert code == 0
    assert out.startswith("not admissible")


def test_mainline_verb(capsys):
    code, out, _ = capture(capsys, ["mainline", "2,2", "--p", "2", "--format", "json"])
    payload = json.loads(out)
    assert (payload["mu"], payload["sigma"], payload["gaps"]) == (6, 8, [7])


def test_oracle_verb(capsys):
    code, out, _ = capture(capsys, ["oracle", "3:0,1", "--bound", "6", "--format", "json"])
    payload = json.loads(out)
    assert payload["values"] == ["-1", "0", "2", "3", "5", "6"]


def test_classify_and_mu0plus(capsys):
    code, out, _ = capture(capsys, ["classify", "2:2"])
    assert "genus_zero" in out
    code, out, _ = capture(capsys, ["mu0plus", "3:0,1", "--format", "json"])
    payload = json.loads(out)
    assert (payload["mu0_plus"], payload["mu_plus"]) == ("2", "3")


def test_construct_verb(capsys):
    code, out, _ = capture(capsys, ["construct", "--p", "2", "--e", "3", "--m", "34", "--format", "json"])
    payload = json.loads(out)
    assert payload["group"] == "2:2,2,1"
    assert payload["min"] == "9"


def test_search_verb(capsys):
    code, out, _ = capture(
        capsys,
        ["search-talu", "--p", "2", "--e", "4", "--e-tilde", "3", "--delta-max", "74",
         "--format", "json"],
    )
    payload = json.loads(out)
    assert payload["pairs"] == [
        {
            "g1": "2:1,1,1,18",
            "g2": "2:69,1,2",
            "delta": [74, 74],
            "mu0": ["287/2", "287/2"],
            "relation": "equal_spectrum_same_lattice",
        }
    ]


def test_search_verb_relation_flag(capsys):
    code, out, _ = capture(
        capsys,
        ["search-talu", "--p", "2", "--e", "4", "--e-tilde", "4", "--delta-max", "86",
         "--relation", "p2-mixed", "--format", "json"],
    )
    payload = json.loads(out)
    assert [q["g1"] for q in payload["pairs"]] == ["2:1,1,1,21"]
    code, out, _ = capture(
        capsys,
        ["search-talu", "--p", "3", "--e", "2", "--e-tilde", "2", "--delta-max", "8",
         "--relation", "same-lattice"],
    )
    assert code == 0 and "pair(s)" in out


def test_domain_errors_exit_1(capsys):
    code, _, err = capture(capsys, ["invariants", "4:1"])
    assert code == 1 and "error:" in err
    code, _, err = capture(capsys, ["construct", "--p", "2", "--e", "3", "--m", "10"])
    assert code == 1 and "error:" in err
    code, _, err = capture(capsys, ["admissible", "2:1,1", "--datum", "1,2,3;0"])
    assert code == 1
    code, _, err = capture(capsys, ["oracle", "2:1", "--bound", "2/2"])
    assert code == 1 and err == "error: '2/2' is not in lowest terms\n"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-verb", "2:1,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["oracle", "3:0,1"])  # missing --bound
    assert exc.value.code == 2


def test_cli_is_a_thin_adapter(capsys):
    # the CLI must agree with the library on a shared vector of groups
    for enc in ("2:1,1", "3:2,9,1", "2:0,2", "5:0,0,1"):
        code, out, _ = capture(capsys, ["mu0", enc, "--format", "json"])
        payload = json.loads(out)
        assert payload["mu0"] == str(mu0(parse_group(enc)).mu0)


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "genus_spectrum", "mu0", "2:1,6,2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mu0"] == "45/2"


def test_deterministic_bytes():
    cmd = [sys.executable, "-m", "genus_spectrum", "spectrum", "2:0,0,0,1"]
    first = subprocess.run(cmd, capture_output=True).stdout
    second = subprocess.run(cmd, capture_output=True).stdout
    assert first == second and b"{2,3,5}" in first


def test_large_prime_is_decided_quickly():
    proc = subprocess.run(
        [sys.executable, "-m", "genus_spectrum", "invariants", "1000000000000000003:1"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    assert "N = 1" in proc.stdout


def test_integers_past_the_default_digit_limit_print_without_a_traceback():
    # Python refuses to print an int of more than 4 300 digits by default;
    # the library's integers are unbounded, so the CLI lifts that limit
    invariants = subprocess.run(
        [sys.executable, "-m", "genus_spectrum", "invariants", "2:20000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert invariants.returncode == 0, invariants.stderr
    assert "Traceback" not in invariants.stderr
    assert max(len(n) for n in re.findall(r"\d+", invariants.stdout)) > 4300
    construct = subprocess.run(
        [sys.executable, "-m", "genus_spectrum", "construct", "--p", "2", "--e", "100000", "--m", "5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert construct.returncode == 1
    assert "Traceback" not in construct.stderr
    assert construct.stderr.startswith("error: ") and construct.stderr.count("\n") == 1


def test_search_names_a_bad_exponent(capsys):
    argv = ["search-talu", "--p", "2", "--e", "-3", "--e-tilde", "1", "--delta-max", "5"]
    assert capture(capsys, argv) == (1, "", "error: e must be >= 1, got -3\n")


def test_oversized_search_exits_1_without_a_traceback():
    # 99 386 deficiencies pass the envelope test with windows summing to
    # 1.18 * 10^14 units; the preflight refuses before any memo is built
    proc = subprocess.run(
        [sys.executable, "-m", "genus_spectrum", "search-talu", "--p", "5", "--e", "9",
         "--e-tilde", "8", "--delta-max", "100000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: 99386 deficiencies") and proc.stderr.count("\n") == 1


def _capped_memory(limit=2 * 10**9):
    # a runaway engine fails fast instead of exhausting the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_oversized_sieves_exit_1_without_a_traceback():
    # each sieve would hold far more than SIEVE_LIMIT values; each refuses first
    for argv, what in (
        (["spectrum", "1000003:0,1"], "the scan of 1000003:0,1"),
        (["oracle", "2:1", "--bound", "100000000"], "the scan of 2:1 up to 100000000"),
        (["mainline", "1000,0", "--p", "1000003"], "the mainline profile of (1000, 0)"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "genus_spectrum", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_capped_memory,
        )
        assert proc.returncode == 1, argv
        assert proc.stdout == "", argv
        assert proc.stderr.startswith(f"error: {what}"), proc.stderr[-300:]
        assert proc.stderr.endswith("over the limit of 1000000\n"), proc.stderr[-300:]
        assert proc.stderr.count("\n") == 1, argv


def test_oversized_exponents_exit_1_without_a_traceback():
    # p^e would have 10^9 bits or more: refused before it or the e base
    # entries are built
    for p in ("2", "3"):
        argv = ["construct", "--p", p, "--e", "1000000000", "--m", "5"]
        proc = subprocess.run(
            [sys.executable, "-m", "genus_spectrum", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_capped_memory,
        )
        assert proc.returncode == 1, p
        assert proc.stdout == "", p
        assert proc.stderr == f"error: p^e = {p}^1000000000 may pass the limit of 4000000 bits\n"


def test_deep_exponent_prints_without_a_traceback():
    group = "2:" + ",".join(["0"] * 1199 + ["1"])
    proc = subprocess.run(
        [sys.executable, "-m", "genus_spectrum", "oracle", group, "--bound", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.endswith("values = {-1,0}\n")


def test_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "genus_spectrum", "oracle", "2:1", "--bound", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_optimized_interpreter_keeps_output_and_self_checks():
    # python -O strips assert statements; no result or self-check may depend on them
    for argv in (
        ["mainline", "2,2", "--p", "2"],
        ["spectrum", "2:0,0,0,1"],
        ["search-talu", "--p", "2", "--e", "4", "--e-tilde", "3", "--delta-max", "74"],
    ):
        cmd = ["-m", "genus_spectrum", *argv]
        plain = subprocess.run([sys.executable, *cmd], capture_output=True, check=True).stdout
        optimized = subprocess.run([sys.executable, "-O", *cmd], capture_output=True, check=True)
        assert optimized.stdout == plain
    lift = (
        "from genus_spectrum import HalfInt, VerificationError\n"
        "from genus_spectrum.signature import genus_of\n"
        "try:\n"
        "    genus_of(1, HalfInt(-3))\n"
        "except VerificationError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", lift], capture_output=True, text=True)
    assert proc.stdout == "raised\n", proc.stderr


def test_too_many_pairs_exit_1_without_a_traceback():
    # (2, 5, 4) lists 242 438 pairs up to deficiency 150; the search counts
    # each matched value's pairs before building them and stops past 10^5
    proc = subprocess.run(
        [sys.executable, "-m", "genus_spectrum", "search-talu", "--p", "2", "--e", "5",
         "--e-tilde", "4", "--delta-max", "300"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_capped_memory,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "limit of 100000 pairs" in proc.stderr


def test_out_of_memory_exits_1_without_a_traceback():
    # the memo of this search passes every up-front estimate (4.1 * 10^8
    # window units) but needs far more than 250 MB, so it runs out of memory
    # within seconds
    proc = subprocess.run(
        [sys.executable, "-m", "genus_spectrum", "search-talu", "--p", "5", "--e", "9",
         "--e-tilde", "8", "--delta-max", "800"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: _capped_memory(25 * 10**7),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def test_oracle_renders_each_value_once(monkeypatch, capsys):
    # one list of strings serves the JSON payload and the text line
    values = [str(v) for v in oracle_reduced_spectrum(parse_group("3:0,1"), 300)]
    calls = []
    text = HalfInt.__str__

    def counting_str(self):
        calls.append(self)
        return text(self)

    monkeypatch.setattr(HalfInt, "__str__", counting_str)
    for fmt, line in (("text", "values = {" + ",".join(values) + "}"), ("json", None)):
        calls.clear()
        code, out, _ = capture(capsys, ["oracle", "3:0,1", "--bound", "300", "--format", fmt])
        assert code == 0
        assert out.splitlines()[-1] == line if line else json.loads(out)["values"] == values
        # each value once, and the bound once
        assert len(calls) == len(values) + 1


def test_huge_multiplicities_exit_1(capsys):
    # p^delta would have 10^12 bits: refused before it is computed
    for verb in ("invariants", "mu0", "mu0plus", "classify", "spectrum"):
        code, out, err = capture(capsys, [verb, "2:1000000000000,1"])
        assert code == 1 and out == "", verb
        assert err.startswith("error: p^delta = 2^1000000000000 of 2:1000000000000,1"), err
        assert err.endswith("the limit of 4000000 bits\n") and err.count("\n") == 1, err


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    return code, out.getvalue(), err.getvalue()


# the scan bound B on a "verified up to" line may change with the scan; the
# closed form's "verified up to infinity" may not
_BOUND_LINE = re.compile(r"^verified up to (?!infinity).*$", re.M)


def test_cli_output_matches_the_recorded_bytes():
    for case in json.loads(CLI_EXPECTED.read_text(encoding="utf-8")):
        code, out, err = _run_captured(case["argv"])
        assert (code, err) == (0, ""), case["argv"]
        got, want = (_BOUND_LINE.sub("verified up to B", t) for t in (out, case["stdout"]))
        assert got == want, case["argv"]


def test_the_shared_parser_gives_the_same_bytes():
    # every run in a process reuses one parser; a usage error and --help in
    # between must leave no trace in later output
    cases = [case["argv"] for case in json.loads(CLI_EXPECTED.read_text(encoding="utf-8"))]
    usage, help_ = ["oracle", "3:0,1"], ["mu0", "--help"]
    build_parser.cache_clear()
    first = [_run_captured(argv) for argv in cases]
    between = [_run_captured(usage), _run_captured(help_)]
    assert [code for code, _, _ in first] == [0] * len(cases)
    assert [code for code, _, _ in between] == [2, 0]
    assert "the following arguments are required: --bound" in between[0][2]
    assert [_run_captured(argv) for argv in cases] == first
    build_parser.cache_clear()
    assert [_run_captured(usage), _run_captured(help_)] == between


def test_the_parser_is_built_once_per_process_and_not_on_import():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from genus_spectrum import cli\n"
        "print(len(built))\n"
        "cli.run(['classify', '2:2'])\n"
        "cli.run(['mu0', '2:2'])\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    # none on import; the top parser and its ten verbs on the first run only
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("0", "11"), proc.stdout + proc.stderr


# argv pieces for the fuzz test: small and huge ints, and malformed text.
_small = st.integers(-2, 40)
_huge = st.integers(10**12, 10**40) | st.integers(-(10**40), -(10**12))
_number = st.one_of(_small, _huge).map(str)
_bad = st.sampled_from(["", "x", "1/0", "3/2/1", "--", "0x10", "١", "½", "2\x00", "\udcff", "٣:1"])
_token = _number | _bad | st.text(max_size=6)
_group = st.builds(
    lambda p, r: f"{p}:{','.join(map(str, r))}",
    st.sampled_from([2, 3, 5, 7, 13, 1, 4, 1000003, 10**40]),
    st.lists(st.integers(-1, 4) | st.integers(10**12, 10**40), min_size=1, max_size=5),
) | _token
_verbs = st.sampled_from(["invariants", "mu0", "mu0plus", "spectrum", "classify"])
_int = st.integers
_argv = st.one_of(
    st.tuples(_verbs, _group),
    st.tuples(st.just("oracle"), _group, st.just("--bound"), _number | _bad),
    st.tuples(st.just("admissible"), _group, st.just("--datum"), _token.map(lambda t: t + ";1")),
    st.tuples(
        st.just("mainline"),
        st.lists(_number, min_size=1, max_size=4).map(",".join),
        st.just("--p"),
        _number | _bad,
    ),
    st.tuples(
        *(st.just("construct"), st.just("--p"), _number),
        *(st.just("--e"), _int(-1, 6).map(str) | _bad, st.just("--m"), _number),
    ),
    st.tuples(
        *(st.just("search-talu"), st.just("--p"), st.sampled_from(["2", "3", "4", "-2"])),
        *(st.just("--e"), _int(0, 6).map(str), st.just("--e-tilde"), _int(0, 6).map(str)),
        *(st.just("--delta-max"), (_int(-1, 40) | _huge).map(str)),
    ),
    st.lists(_token | st.sampled_from(["spectrum", "--bound", "--p", "--format"]), max_size=4),
).flatmap(lambda argv: st.sampled_from([list(argv), [*argv, "--format", "json"]]))


@given(_argv)
# once divided by p - 1, and once took len() of a range longer than sys.maxsize
@example(["construct", "--p", "1", "--e", "1", "--m", "0"])
@example(["search-talu", "--p", "2", "--e", "2", "--e-tilde", "2", "--delta-max", str(2**64 + 1)])
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_exits_0_1_or_2(argv):
    # every verb, valid or not, ends in an exit code and never in another
    # exception; the digit limit is lifted as main() lifts it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        sys.set_int_max_str_digits(limit)
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or err.getvalue().startswith("error: "), err.getvalue()

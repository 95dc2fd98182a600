import json
import re
import resource
import subprocess
import sys

import pytest

from genus_spectrum import HalfInt, mu0, oracle_reduced_spectrum, parse_group
from genus_spectrum.cli import run


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


def _capped_memory():
    # a runaway engine fails fast instead of exhausting the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


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

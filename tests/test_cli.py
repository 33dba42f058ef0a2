import io
import json
import contextlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nhdm.classifier import symmetry_group_of_terms
from nhdm.cli import run
from nhdm.monomials import Monomial
from nhdm.torus import torus_basis


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def payload_of(argv):
    code, out, _ = invoke(argv + ["--format", "json"])
    assert code == 0
    return json.loads(out)


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

SCHEMA = json.loads((ROOT / "src" / "nhdm" / "schema" / "report.schema.json").read_text())


def child_env():
    """The environment of a child ``python -m nhdm``, with ``src`` on its path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_cli(argv, timeout=10):
    """Run ``python -m nhdm`` in a child process; a hang fails the test."""
    return subprocess.run([sys.executable, "-m", "nhdm", *argv],
                          capture_output=True, text=True, timeout=timeout, env=child_env())


def random_matrix_text(seed, size, bound):
    """A size x size matrix in the --matrix format, entries drawn row by row."""
    rng = random.Random(seed)
    return ";".join(",".join(str(rng.randint(-bound, bound)) for _ in range(size))
                    for _ in range(size))


def validate_schema(report):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, SCHEMA)


class TestBasics:
    def test_classify_text_lists_seven_groups(self):
        code, out, _ = invoke(["classify", "--doublets", "3"])
        assert code == 0
        for name in ("Z2", "Z3", "Z4", "Z2xZ2", "U(1)", "U(1)xZ2", "U(1)xU(1)"):
            assert name in out

    def test_snf_worked_example(self):
        code, out, _ = invoke(["snf", "--matrix", "3,2;-3,-1"])
        assert code == 0
        assert "d: (1, 3)" in out
        assert "Z3" in out

    def test_doublets_guard(self):
        code, _, err = invoke(["classify", "--doublets", "99"])
        assert code == 2
        assert "out of supported range" in err

    @pytest.mark.parametrize("argv, supported", [
        (["classify", "--doublets", "9"], "2..6"),
        (["charges", "--doublets", "9"], "2..6"),
        (["witness", "--doublets", "9", "--group", "Z2"], "2..6"),
        (["verify-bound", "--doublets", "6"], "2..5"),
        (["probe-conjecture", "--doublets", "6"], "2..5"),
        (["cp-extend", "--doublets", "4"], "3..3"),
        (["cp-extend", "--doublets", "4", "--group", "Z2"], "3..3"),
    ])
    def test_each_range_guard_exits_2(self, argv, supported):
        assert invoke(argv) == (2, "", f"nhdm: doublet count out of supported range ({supported})\n")

    def test_unknown_subcommand(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_malformed_matrix(self):
        code, _, err = invoke(["snf", "--matrix", "1,a;2,3"])
        assert code == 2
        assert "malformed" in err

    def test_construct_out_of_range(self):
        code, _, err = invoke(["construct", "cyclic", "--p", "9", "--n", "3"])
        assert code == 2


class TestHostileInput:
    def test_snf_of_huge_entry_returns(self):
        proc = run_cli(["snf", "--matrix", "99999999999999999999999,1;2,3"])
        assert proc.returncode == 0
        assert "group (as a charge matrix): Z299999999999999999999995" in proc.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("matrix", [
        # the Smith transforms of this 12x12 matrix have entries past
        # Python's default limit of 4300 digits in str()
        pytest.param(random_matrix_text(1, 12, 10**20), id="transforms"),
        # coprime 2,201-digit entries: the group order has 4,401 digits
        pytest.param(f"{10**2200 + 1},0;0,{10**2200 + 3}", id="group-order"),
    ])
    def test_snf_too_long_to_print_exits_2(self, matrix, fmt):
        proc = run_cli(["snf", f"--matrix={matrix}", "--format", fmt])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "too long to print" in proc.stderr
        assert "set_int_max_str_digits" not in proc.stderr

    def test_snf_of_long_entries_exits_2_fast(self):
        # 451-digit entries at 16x16 reduce for seconds; the digit bound
        # refuses them before the Smith form is taken.  A 5,000-digit entry
        # is within that bound, but past the digits Python converts to an int
        for matrix, limit in [(random_matrix_text(1, 16, 10**450), "10000 decimal digits in all"),
                              ("1," + "9" * 5000, "4300 decimal digits each")]:
            start = time.perf_counter()
            proc = run_cli(["snf", f"--matrix={matrix}"])
            assert time.perf_counter() - start < 1
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert f"matrix entries too long (limit {limit})" in proc.stderr
            assert "set_int_max_str_digits" not in proc.stderr and len(proc.stderr) < 100

    @pytest.mark.parametrize("argv", [
        ["witness", "--doublets", "3", "--group", "Z" + "9" * 30],
        ["cp-extend", "--doublets", "3", "--group", "Z2xZ" + "7" * 25],
        # more digits than Python converts to an int
        ["witness", "--doublets", "3", "--group", "Z" + "9" * 5000],
        ["cp-extend", "--doublets", "3", "--group", "Z2xZ" + "7" * 5000],
    ])
    def test_huge_cyclic_group_name_exits_2(self, argv):
        proc = run_cli(argv)
        assert proc.returncode == 2
        assert "exceeds the supported order 4294967296" in proc.stderr
        assert "set_int_max_str_digits" not in proc.stderr and len(proc.stderr) < 100

    def test_group_name_with_many_factors_exits_2_fast(self):
        # the Smith form of diag(factors) took 22 s at 800 factors; the factor
        # bound refuses 2,000 before it is taken
        start = time.perf_counter()
        proc = run_cli(["witness", "--doublets", "3", "--group", "x".join(["Z2"] * 2000)])
        assert time.perf_counter() - start < 1
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cyclic factors exceed the supported 64" in proc.stderr

    def test_group_name_with_the_most_factors_answers(self):
        code, out, _ = invoke(["witness", "--doublets", "3", "--group", "x".join(["Z2"] * 64)])
        assert code == 0
        assert out.strip().endswith("is not realizable as a torus subgroup for N=3")

    @pytest.mark.parametrize("option", ["--partition", "--orders"])
    @pytest.mark.parametrize("text", ["", "1,a", "1,,2",
                                      pytest.param("1," + "9" * 5000, id="5000-digits")])
    def test_product_lists_that_are_not_integers_exit_2(self, option, text):
        partition, orders = (text, "2,2") if option == "--partition" else ("1,2", text)
        code, out, err = invoke(["construct", "product", "--partition", partition,
                                 "--orders", orders])
        assert code == 2 and out == ""
        if len(text) > 4300:  # more digits than Python converts to an int
            assert err == f"nhdm: {option} entries too long (limit 4300 decimal digits each)\n"
        else:
            assert f"{option} must be comma-separated integers, got {text!r}" in err
        assert "invalid literal" not in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("argv, message", [
        (["witness", "--doublets", "3", "--group", "Q" * 50_000], "cannot parse group name 'QQ"),
        (["snf", "--matrix", "1,a" + "b" * 49_997], "malformed matrix string '1,ab"),
        (["construct", "product", "--partition", "1,2", "--orders", "a" * 50_000],
         "--orders must be comma-separated integers, got 'aa"),
    ], ids=["group", "matrix", "orders"])
    def test_a_long_malformed_input_is_echoed_as_a_prefix(self, argv, message):
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert message in err and "(50000 characters)" in err
        assert len(err.encode()) < 300

    def test_group_name_with_a_superscript_digit_exits_2(self):
        # "²".isdigit() is true, but int() rejects it
        code, out, err = invoke(["witness", "--doublets", "3", "--group", "Z²"])
        assert code == 2 and out == ""
        assert "cannot parse group name" in err

    def test_closed_stdout_exits_1_quietly(self):
        # the read end is closed before the child starts, so its first write
        # to stdout fails however much it prints
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nhdm", "classify", "--doublets", "3", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=10, env=child_env())
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


# reports recorded from the walk without coset deduplication; changes to
# the walk or to group extraction must keep them byte for byte
CLASSIFY_GOLDEN_DOUBLETS = [2, 3, 4, 5]


def classify_golden(n):
    """The golden file and argv of the JSON ``classify`` report for N doublets."""
    return f"classify-{n}.json", ["classify", "--doublets", str(n), "--format", "json"]


# reports of the other subcommands, recorded before the phase solver was
# indexed by position; the cp-extend drill-downs pin every constraint,
# detail and witness field
GOLDEN_REPORTS = [
    ("cp-extend-3.json", ["cp-extend", "--doublets", "3", "--format", "json"]),
    ("cp-extend-3.txt", ["cp-extend", "--doublets", "3"]),
    ("cp-extend-3-Z4.txt", ["cp-extend", "--doublets", "3", "--group", "Z4"]),
    *[(f"cp-extend-3-{group.replace('U(1)', 'U1')}.json",
       ["cp-extend", "--doublets", "3", "--group", group, "--format", "json"])
      for group in ("trivial", "Z2", "Z3", "Z4", "Z2xZ2", "U(1)", "U(1)xZ2", "U(1)xU(1)")],
    ("charges-4.json", ["charges", "--doublets", "4", "--format", "json"]),
    ("check-z3z3.json", ["check-z3z3", "--format", "json"]),
    ("witness-3-Z4.json", ["witness", "--doublets", "3", "--group", "Z4", "--format", "json"]),
    ("verify-bound-4.json", ["verify-bound", "--doublets", "4", "--format", "json"]),
    ("probe-conjecture-4.json", ["probe-conjecture", "--doublets", "4", "--format", "json"]),
    ("construct-cyclic-9-5.json",
     ["construct", "cyclic", "--p", "9", "--n", "5", "--format", "json"]),
    ("snf-worked.json", ["snf", "--matrix", "3,2;-3,-1", "--format", "json"]),
    # recorded before the congruence solver shared one Smith form and the
    # invariant terms were read off lattice membership
    ("charges-2.json", ["charges", "--doublets", "2", "--format", "json"]),
    ("verify-bound-2.json", ["verify-bound", "--doublets", "2", "--format", "json"]),
    ("probe-conjecture-2.json", ["probe-conjecture", "--doublets", "2", "--format", "json"]),
    ("classify-4-finite-only.json",
     ["classify", "--doublets", "4", "--finite-only", "--format", "json"]),
    ("witness-4-Z8.json", ["witness", "--doublets", "4", "--group", "Z8", "--format", "json"]),
    ("witness-4-Z2xZ4.json",
     ["witness", "--doublets", "4", "--group", "Z2xZ4", "--format", "json"]),
    # appended last so the positional ids of the cases above stay put
    ("check-z3z3.txt", ["check-z3z3"]),
    # text reports recorded before the c-row was read off the exponent
    # vector and before `classify` lost its continuous-group switch
    ("charges-3-pretty.txt", ["charges", "--doublets", "3", "--pretty"]),
    ("classify-4-finite-only.txt", ["classify", "--doublets", "4", "--finite-only"]),
    # the text reports no golden covered, and the JSON of a block product,
    # recorded before each subcommand was declared once
    ("classify-3.txt", ["classify", "--doublets", "3"]),
    ("snf-worked.txt", ["snf", "--matrix", "3,2;-3,-1"]),
    ("construct-cyclic-9-5.txt", ["construct", "cyclic", "--p", "9", "--n", "5"]),
    ("construct-product-12-23.txt",
     ["construct", "product", "--partition", "1,2", "--orders", "2,3"]),
    ("construct-product-12-23.json",
     ["construct", "product", "--partition", "1,2", "--orders", "2,3", "--format", "json"]),
    ("verify-bound-4.txt", ["verify-bound", "--doublets", "4"]),
    ("probe-conjecture-3.txt", ["probe-conjecture", "--doublets", "3"]),
    ("witness-3-Z4.txt", ["witness", "--doublets", "3", "--group", "Z4"]),
    ("witness-3-Z4-pretty.txt", ["witness", "--doublets", "3", "--group", "Z4", "--pretty"]),
]

# one child interpreter per line: its command-line flags and PYTHONHASHSEED
INTERPRETERS = [(("-O",), "0"), ((), "1")]

# runs the argv lists it reads from stdin through nhdm.cli.run, in one
# process, and writes each (exit code, stdout) as JSON
RUN_ALL = """
import contextlib, io, json, sys
from nhdm.cli import run
outputs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    outputs.append((code, out.getvalue()))
json.dump(outputs, sys.stdout)
"""


class TestGolden:
    @pytest.mark.parametrize("n", CLASSIFY_GOLDEN_DOUBLETS)
    def test_classify_report_is_byte_identical(self, n):
        name, argv = classify_golden(n)
        code, out, _ = invoke(argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name, argv", GOLDEN_REPORTS)
    def test_report_is_byte_identical(self, name, argv):
        code, out, _ = invoke(argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    def test_reports_match_under_other_hash_seeds_and_dash_o(self):
        # every golden command in two child interpreters, each running them
        # all in one process: a report that iterates a set of strings differs
        # between the hash seeds, and one that computes a result inside an
        # assert statement differs under ``python -O``, which strips asserts
        cases = [classify_golden(n) for n in CLASSIFY_GOLDEN_DOUBLETS] + GOLDEN_REPORTS
        children = [subprocess.Popen([sys.executable, *flags, "-c", RUN_ALL], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE,
                                     env=dict(child_env(), PYTHONHASHSEED=seed))
                    for flags, seed in INTERPRETERS]
        for (flags, seed), child in zip(INTERPRETERS, children):
            out, err = child.communicate(json.dumps([argv for _, argv in cases]), timeout=120)
            assert child.returncode == 0, err
            differ = [name for (name, _), (code, text) in zip(cases, json.loads(out))
                      if (code, text) != (0, (GOLDEN / name).read_text())]
            assert differ == [], (flags, seed)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["classify", "--doublets", "3"],
        ["classify", "--doublets", "3", "--format", "json"],
        ["charges", "--doublets", "3"],
        ["cp-extend", "--doublets", "3"],
        ["check-z3z3", "--format", "json"],
        ["construct", "product", "--partition", "1,2", "--orders", "2,3"],
    ])
    def test_byte_identical_reruns(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


class TestJson:
    def test_reports_validate_against_schema(self):
        # every subcommand, and each report carries the doublet count exactly
        # when its subcommand takes one, or is the Z3 x Z3 check at N=3
        commands = set()
        for argv in (["classify", "--doublets", "3"],
                     ["snf", "--matrix", "0,1;4,2"],
                     ["charges", "--doublets", "3"],
                     ["construct", "cyclic", "--p", "9", "--n", "5"],
                     ["cp-extend", "--doublets", "3"],
                     ["check-z3z3"],
                     ["verify-bound", "--doublets", "3"],
                     ["probe-conjecture", "--doublets", "3"],
                     ["witness", "--doublets", "3", "--group", "Z4"]):
            report = payload_of(argv)
            validate_schema(report)
            assert json.loads(json.dumps(report)) == report
            commands.add(report["command"])
            takes_doublets = "--doublets" in invoke([argv[0], "--help"])[1]
            assert ("n_doublets" in report) == (takes_doublets or argv[0] == "check-z3z3"), argv
        assert commands == set(SCHEMA["properties"]["command"]["enum"])

    def test_classify_payload_contents(self):
        report = payload_of(["classify", "--doublets", "3", "--finite-only"])
        names = [g["group"] for g in report["payload"]["groups"]]
        assert names == ["Z2", "Z3", "Z4", "Z2xZ2"]
        assert report["payload"]["max_finite_order"] == 4

    def test_cp_extend_group_drilldown(self):
        # every conjugate embedding of Z4 appears, with consistent verdicts
        report = payload_of(["cp-extend", "--doublets", "3", "--group", "Z4"])
        kinds = {}
        for c in report["payload"]["cases"]:
            kinds.setdefault(c["extension"], set()).add(c["kind"])
        assert kinds == {"Z4xZ2*": {"enlarged_unitary"},
                         "Z8*": {"continuous_degeneration"}}
        transpositions = {(2, 1, 3), (1, 3, 2), (3, 2, 1)}
        for c in report["payload"]["cases"]:
            if c["extension"] == "Z4xZ2*":
                assert tuple(c["witness"]["perm"]) in transpositions

    def test_cp_extend_text_names_an_empty_case_list(self):
        # no antiunitary pattern commutes with U(1) x U(1); the heading alone
        # read as a report cut off
        code, out, _ = invoke(["cp-extend", "--doublets", "3", "--group", "U(1)xU(1)"])
        assert code == 0
        assert out.splitlines() == ["antiunitary extensions of U(1)xU(1) for N=3",
                                    "  (no antiunitary candidates)"]

    def test_witness_unreal(self):
        report = payload_of(["witness", "--doublets", "3", "--group", "Z16"])
        assert report["payload"]["realizable"] is False

    def test_witness_text_names_an_empty_witness(self):
        # the heading alone read as a witness cut off; classify words it so
        code, out, _ = invoke(["witness", "--doublets", "3", "--group", "U(1)xU(1)"])
        assert code == 0
        assert out.splitlines()[1:4] == [
            "witness terms (added to the torus-symmetric backbone):",
            "  (torus-symmetric backbone only)",
            "backbone:"]

    @pytest.mark.parametrize("n, terms", [(2, ["(f1+ f2)"]), (3, ["(f1+ f2)", "(f1+ f3)"])])
    def test_witness_trivial(self, n, terms):
        # classify leaves the trivial group out, but the walk spans the
        # lattice of every charge, first with these terms
        report = payload_of(["witness", "--doublets", str(n), "--group", "trivial"])["payload"]
        assert report["realizable"] is True
        assert report["witness_text"] == terms
        assert report["generators"] == []
        witness = [Monomial.canonical(factors) for factors in report["witness"]]
        assert symmetry_group_of_terms(witness, torus_basis(n)).signature.is_trivial

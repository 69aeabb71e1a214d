import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import egrl.cli
import egrl.construction
import egrl.subsetsum
from conftest import poly_is_irreducible
from egrl.cli import main
from egrl.field import FieldCtx
from egrl.linear import InconsistentInput, NegativeCount
from egrl.matrix import FieldMatrix


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


GOLDEN_F9 = [
    "construct", "--q", "9", "--mod", "2,1,1", "--k", "5", "--b", "2",
    "--M", "1,1,2,1", "--special", "--order", "gen",
]


def test_construct_special_golden(capsys):
    rc, out, _ = run(capsys, *GOLDEN_F9)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "G"
    assert lines[1] == "5 11"
    assert lines[2] == "1 1 1 1 1 1 1 1 0 0 2"
    assert lines[6] == "1 2 1 2 1 2 1 2 2 1 0"


def test_construct_with_h_satisfies_identity(capsys):
    # k < n, and the two ends of the range rule, k = 3 and k = n.
    ctx = FieldCtx(13)
    for k, n, flags in ((4, 6, ["--n", "6", "--alpha", "1,2,3,4,5,6"]),
                        (3, 3, ["--alpha", "1,2,3"]), (6, 6, ["--alpha", "1,2,3,4,5,6"])):
        rc, out, _ = run(capsys, "construct", "--q", "13", "--k", str(k), *flags, "--b", "1",
                         "--M", "1,1,1,2", "--with-h")
        assert rc == 0
        g_text, h_text = out.split("H\n")
        g = FieldMatrix.from_text(ctx, g_text.split("G\n")[1])
        h = FieldMatrix.from_text(ctx, h_text)
        assert (g.rows, g.cols) == (k, n + 3)
        assert (h.rows, h.cols) == (n + 3 - k, n + 3)
        assert g.matmul(h.transpose()).is_zero()


def test_construct_with_h_at_field_scale(capsys):
    # The special [1026, 8] code over GF(1024): u and H's top row read one P.
    # On all of F_q^* the top row is the classical (1, ..., 1, 0, 0, -sum(v)/b),
    # and sum(v) = 1023 = 1 = -1 in characteristic 2.
    rc, out, err = run(capsys, "construct", "--q", "1024", "--k", "8", "--b", "1",
                       "--M", "1,1,1,2", "--special", "--with-h")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert (lines[:2], lines[10:12]) == (["G", "8 1026"], ["H", "1018 1026"])
    assert lines[12] == " ".join(["1"] * 1023 + ["0", "0", "1"])
    assert len(lines) == 12 + 1018


def test_construct_duplicate_alpha_exit2(capsys):
    rc, _, err = run(
        capsys, "construct", "--q", "13", "--k", "3",
        "--alpha", "1,1,2", "--b", "1", "--M", "1,1,1,2",
    )
    assert rc == 2
    assert "DuplicateAlpha" in err


def test_construct_with_h_unsupported_shape_exit3(capsys, tmp_path):
    rc, _, err = run(
        capsys, "construct", "--q", "13", "--k", "5",
        "--alpha", "1,2,3,4,5,6", "--b", "1", "--t", "1",
        "--M", "1,1,1,2", "--with-h",
    )
    assert rc == 3
    assert "unsupported shape" in err


def test_construct_out_file(capsys, tmp_path):
    target = tmp_path / "g.txt"
    rc, out, _ = run(capsys, *GOLDEN_F9, "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().startswith("G\n5 11\n")
    # --out takes the JSON report too, and stdout stays empty.
    rc, out, _ = run(capsys, *GOLDEN_F9, "--out", str(target), "--json")
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["results"]["G"].startswith("5 11\n")
    # An unwritable --out path is refused in either form.
    missing = str(tmp_path / "no" / "dir" / "x")
    for form in ([], ["--json"]):
        rc, out, err = run(capsys, *GOLDEN_F9, "--out", missing, *form)
        assert (rc, out) == (2, "")
        assert err.startswith("FileNotFoundError: ") and err.count("\n") == 1


def test_classify_example_verified(capsys):
    rc, out, _ = run(
        capsys, "classify", "--q", "13", "--k", "5", "--alpha", "1,2,7,8,9",
        "--b", "1", "--M", "1,1,1,2", "--verify",
    )
    assert rc == 0
    assert "MDS: true" in out
    assert "dual AMDS: false" in out
    assert "[8,5,4]" in out
    assert "brute force agrees: true" in out


def test_classify_witness_line(capsys):
    rc, out, _ = run(
        capsys, "classify", "--q", "13", "--k", "5", "--alpha", "1,2,7,8,9",
        "--b", "1", "--M", "1,0,5,1",
    )
    assert rc == 0
    assert "MDS: false; witness I_1={1,2,7,8} j=1" in out
    assert "dual AMDS: true" in out


def test_classify_runs_mds_criterion_once(capsys, monkeypatch):
    # The dual-AMDS verdict is read off the same MdsReport.
    calls = []
    real = egrl.construction.check_mds

    def counted(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(egrl.cli, "check_mds", counted)
    monkeypatch.setattr(egrl.construction, "check_mds", counted)
    rc, out, _ = run(
        capsys, "classify", "--q", "13", "--k", "5", "--alpha", "1,2,7,8,9",
        "--b", "1", "--M", "1,0,5,1",
    )
    assert rc == 0
    assert out.endswith("dual AMDS: true\n")
    assert len(calls) == 1


def test_classify_unsupported_shape_brute_forces(capsys):
    rc, out, _ = run(
        capsys, "classify", "--q", "13", "--k", "5", "--alpha", "1,2,3,4,5,6",
        "--b", "1", "--ell", "3", "--M", "1,1,0,0,1,1,1,0,1",
    )
    assert rc == 0
    assert "brute-force only" in out
    assert "parameters: [" in out


def test_classify_json_schema(capsys):
    rc, out, _ = run(
        capsys, "classify", "--q", "13", "--k", "5", "--alpha", "1,2,7,8,9",
        "--b", "1", "--M", "1,1,1,2", "--verify", "--json",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["results"]["mds"] is True
    assert report["oracle_agreement"] == {"mds": True, "dual_amds": True}
    # numeric payloads are decimal strings
    assert report["instance"]["n"] == "5"
    assert report["results"]["classification"]["parameters"] == ["8", "5", "4"]


def test_weights_both_golden(capsys):
    rc, out, _ = run(
        capsys, "weights", "--q", "9", "--mod", "2,1,1", "--k", "5", "--b", "2",
        "--M", "1,1,2,1", "--special", "--order", "gen", "--method", "both",
    )
    assert rc == 0
    assert "enumerator: 1+224x^6+1520x^7+4880x^8+14040x^9+22240x^10+16144x^11" in out
    assert "agreement: true" in out


def test_weights_both_mismatch_exit4(capsys, monkeypatch):
    # A closed form that swaps primal and dual must be caught by the
    # brute-force comparison, with the report still emitted once.
    real = egrl.cli.special_nmds_distribution
    monkeypatch.setattr(egrl.cli, "special_nmds_distribution", lambda p: real(p)[::-1])
    primal = ["1", "0", "0", "0", "0", "0", "224", "1520", "4880", "14040", "22240", "16144"]
    dual = ["1", "0", "0", "0", "0", "224", "2352", "11280", "47000", "125240", "199824",
            "145520"]
    argv = ["weights", "--q", "9", "--mod", "2,1,1", "--k", "5", "--b", "2",
            "--M", "1,1,2,1", "--special", "--method", "both"]
    rc, out, err = run(capsys, *argv)
    assert rc == 4 and err == ""
    assert out == (
        "enumerator: 1+224x^5+2352x^6+11280x^7+47000x^8+125240x^9+199824x^10+145520x^11\n"
        f"distribution: {json.dumps(dual)}\n"
        "agreement: false\n"
    )
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 4 and err == ""
    report = json.loads(out)
    assert sorted(report) == ["argv", "command", "instance", "oracle_agreement", "results",
                              "schema"]
    assert report["oracle_agreement"] == {"distribution": False, "dual_distribution": False}
    assert report["results"] == {
        "method": "both",
        "distribution": dual,
        "dual_distribution": primal,
        "brute_distribution": primal,
    }


@pytest.mark.parametrize("alpha,enumerator", [
    ("1,2,7,8,9", "1+840x^4+6048x^5+38304x^6+130368x^7+195732x^8"),  # MDS
    ("1,2,7,8,9,10,11", "1+144x^5+1800x^6+11520x^7+52020x^8+139080x^9+166728x^10"),  # NMDS
], ids=["mds", "nmds"])
def test_weights_formula_on_nonzero_points(capsys, alpha, enumerator):
    # Not special instances: the closed form covers every ell = 2, t = 0 instance
    # with nonzero points, and brute force agrees on both sides.
    argv = ["weights", "--q", "13", "--k", "5", "--alpha", alpha, "--b", "1", "--M", "1,1,1,2"]
    rc, out, err = run(capsys, *argv, "--method", "formula")
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == f"enumerator: {enumerator}"
    rc, out, err = run(capsys, *argv, "--method", "both", "--json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["oracle_agreement"] == {"distribution": True,
                                                   "dual_distribution": True}


@pytest.mark.parametrize("extra,rc,line", [
    (["--alpha", "0,2,7,8,9", "--M", "1,1,1,2"], 2,
     "InvalidParams: closed weight formulas need nonzero evaluation points, got alpha[0] = 0"),
    (["--alpha", "1,2,3,4,5,6", "--ell", "3", "--M", "1,1,0,0,1,1,1,0,1"], 3,
     "unsupported shape: closed formulas cover ell=2, t=0 only; got ell=3, t=0 "
     "(general shapes remain brute-force classifiable)"),
], ids=["zero-point", "ell3"])
def test_weights_formula_refusals(capsys, extra, rc, line):
    for method in ("formula", "both"):
        got = run(capsys, "weights", "--q", "13", "--k", "5", "--b", "1", *extra,
                  "--method", method)
        assert got == (rc, "", line + "\n")


def test_weights_raw_generator_file(capsys, tmp_path):
    gen = tmp_path / "rep.txt"
    gen.write_text("1 3\n1 1 1\n")
    rc, out, _ = run(
        capsys, "weights", "--q", "3", "--generator", str(gen), "--method", "brute",
    )
    assert rc == 0
    assert "enumerator: 1+2x^3" in out


def test_weights_gf729_raw_generator_uses_python_path(capsys, tmp_path):
    # A field larger than the desk-scale ones, walked with k = 2 (no addition
    # table); two rows with distinct second entries give an [n, 2] MDS code.
    q, n = 729, 5
    gen = tmp_path / "mds.txt"
    gen.write_text(f"2 {n}\n" + " ".join(["1"] * n) + "\n" + " ".join(map(str, range(n))) + "\n")
    rc, out, _ = run(
        capsys, "weights", "--q", str(q), "--generator", str(gen), "--method", "brute",
        "--json",
    )
    assert rc == 0
    d = n - 1
    expected = [1] + [0] * (d - 1) + [
        comb(n, w) * sum((-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1)
                         for j in range(w - d + 1))
        for w in range(d, n + 1)
    ]
    assert json.loads(out)["results"]["distribution"] == [str(c) for c in expected]


def test_weights_zero_generator_exit2(capsys, tmp_path):
    gen = tmp_path / "zero.txt"
    gen.write_text("1 4\n0 0 0 0\n")
    rc, out, err = run(
        capsys, "weights", "--q", "5", "--generator", str(gen), "--method", "brute",
    )
    assert rc == 2 and out == ""
    assert err == "ZeroCode: generator has rank 0\n"


@pytest.mark.parametrize("error", [InconsistentInput, NegativeCount])
def test_verification_errors_exit4(capsys, monkeypatch, error):
    def broken(params):
        raise error("closed form failed its check")

    monkeypatch.setattr(egrl.cli, "special_nmds_distribution", broken)
    rc, out, err = run(
        capsys, "weights", "--q", "9", "--mod", "2,1,1", "--k", "5", "--b", "2",
        "--M", "1,1,2,1", "--special", "--method", "formula",
    )
    assert rc == 4 and out == ""
    assert err == f"verification failed: {error.__name__}: closed form failed its check\n"


def test_weights_budget_guidance(capsys):
    rc, _, err = run(
        capsys, "weights", "--q", "9", "--mod", "2,1,1", "--k", "5", "--b", "2",
        "--M", "1,1,2,1", "--special", "--method", "brute", "--budget", "100",
    )
    assert rc == 2
    assert "--budget" in err


# The top of the paper's proven NMDS range, k = q-1 (q-2 in characteristic 2):
# the dual has q**3 codewords, so the walk takes it.
TOP_OF_RANGE = [(25, 24), (27, 26), (32, 30), (49, 48)]


@pytest.mark.parametrize("q,k", [
    (8, 4),  # below the paper's NMDS range in characteristic 2 (5 <= k <= q-2)
    # The bench's enumerate sizes, 6.4M-14.3M messages: characteristic 2, a prime
    # field and odd extensions, their tail spans built column by column.
    (16, 6), (23, 5), (25, 5), (27, 5),
])
def test_weights_special_both_agree(capsys, q, k):
    rc, out, err = run(capsys, "weights", "--q", str(q), "--k", str(k), "--b", "1",
                       "--M", "1,1,1,2", "--special", "--method", "both")
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "agreement: true"


@pytest.mark.parametrize("q,k", TOP_OF_RANGE)
def test_weights_top_of_range_walks_the_dual(capsys, q, k):
    special = ["weights", "--q", str(q), "--k", str(k), "--b", "1", "--M", "1,1,1,2",
               "--special"]
    rc, out, err = run(capsys, *special, "--method", "both")
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "agreement: true"
    rc, formula, _ = run(capsys, *special, "--method", "formula", "--json")
    assert rc == 0
    rc, brute, _ = run(capsys, *special, "--method", "brute", "--json")
    assert rc == 0
    assert (json.loads(brute)["results"]["distribution"]
            == json.loads(formula)["results"]["distribution"])


def test_weights_formula_at_field_scale(capsys):
    # The special [1026, 512] code over GF(1024) by the excess solve: each side
    # renders whole and sums to its size.
    rc, out, err = run(capsys, "weights", "--q", "1024", "--k", "512", "--b", "1",
                       "--M", "1,1,1,2", "--special", "--method", "formula")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["enumerator", "distribution",
                                                      "dual distribution"]
    primal, dual = (list(map(int, json.loads(line.split(": ")[1]))) for line in lines[1:])
    assert (sum(primal), sum(dual)) == (1024**512, 1024**514)
    assert primal[:514] == [1] + [0] * 513 and primal[514] == dual[512] > 0


def test_weights_inline_high_rate_instance(capsys):
    rc, out, err = run(capsys, "weights", "--q", "13", "--k", "11",
                       "--alpha", ",".join(map(str, range(1, 13))), "--b", "1",
                       "--M", "1,1,1,2", "--method", "both")
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "agreement: true"


def test_weights_budget_names_the_smaller_side(capsys):
    # [34, 28] over GF(32): the dual's 32**6 codewords are over the budget too.
    rc, out, err = run(capsys, "weights", "--q", "32", "--k", "28", "--b", "1",
                       "--M", "1,1,1,2", "--special", "--method", "both")
    assert (rc, out) == (2, "")
    assert err == ("enumeration of a code of 1073741824 codewords exceeds the budget of "
                   "67108864; raise --budget to allow it\n")


def test_budget_refusal_past_the_caller_digit_limit(capsys, monkeypatch):
    # q**k = 65536**1000 has 4,817 digits, past a caller's limit of 640: the
    # refusal still names it, before the code is built, and the caller's
    # limit is back afterwards.
    monkeypatch.setattr(egrl.cli, "egrl_code", lambda params: pytest.fail("code built"))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        rc, out, err = run(capsys, "weights", "--q", "65536", "--k", "1000", "--b", "1",
                           "--M", "1,1,1,2", "--special", "--method", "brute")
        after = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        size = str(65536**1000)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, out, after, len(size)) == (2, "", 640, 4817)
    assert err == (f"enumeration of a code of {size} codewords exceeds the budget of "
                   "67108864; raise --budget to allow it\n")


def test_sweep_refuses_negative_trials(capsys, monkeypatch):
    rc, out, err = run(capsys, "sweep", "--q-list", "4", "--k-list", "3", "--trials", "-1")
    assert (rc, out, err) == (2, "", "InvalidParams: sweep needs --trials >= 0, got -1\n")
    # --trials 0 runs no random trial, but still every special instance.
    tags, check = [], egrl.cli._check_instance

    def counted(params, budget, failures, tag):
        tags.append(tag)
        check(params, budget, failures, tag)

    monkeypatch.setattr(egrl.cli, "_check_instance", counted)
    rc, out, err = run(capsys, "sweep", "--q-list", "4", "--k-list", "3", "--trials", "0")
    assert (rc, out, err) == (0, "q=4 k=3: 0 new failures\n0 disagreements\n", "")
    assert tags == [f"q=4 k=3 special[{name}]" for name in _SWEEP_PATTERNS]


def test_check_instance_census_takes_the_budget(monkeypatch):
    # The special [10, 3] code over GF(8): --budget alone decides whether the
    # census walks its dual's 8**7 = 2**21 codewords, and a budget one below
    # that skips the census with no failure.
    ctx = FieldCtx.from_order(8)
    p = egrl.construction.special_construction(ctx, 3, 1, FieldMatrix.from_flat(ctx, 2, 2,
                                                                               [1, 1, 1, 2]))
    censuses, census = [], egrl.cli.dual_support_pattern_census

    def counted(params, budget):
        censuses.append(census(params, budget))
        return censuses[-1]

    monkeypatch.setattr(egrl.cli, "dual_support_pattern_census", counted)
    for budget, walked in ((egrl.cli.DEFAULT_BUDGET, 1), (8**7, 2), (8**7 - 1, 2)):
        failures = []
        egrl.cli._check_instance(p, budget, failures, "special")
        assert (failures, len(censuses)) == ([], walked)
    assert censuses[0] == egrl.construction.min_weight_census(p)


@pytest.mark.parametrize("argv", [
    ["classify", "--q", "1024", "--k", "700", "--b", "1", "--M", "1,1,1,2", "--special",
     "--verify"],
    ["weights", "--q", "1024", "--k", "700", "--b", "1", "--M", "1,1,1,2", "--special",
     "--method", "brute"],
    ["sweep", "--q-list", "1024", "--k-list", "700", "--trials", "1"],
    ["sweep", "--q-list", "65536", "--k-list", "4", "--trials", "1"],  # q**3 > budget at any n
], ids=["classify", "weights", "sweep", "sweep-65536"])
def test_budget_refuses_before_any_row_reduction(capsys, monkeypatch, argv):
    # An instance's generator has rank k, so its walk size is known before
    # the O(k**2 n) row reduction that building the code starts with.
    def never(*args):
        raise AssertionError("code built before the budget check")

    monkeypatch.setattr(egrl.cli, "egrl_code", never)
    monkeypatch.setattr(egrl.cli.LinearCode, "__init__", never)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert re.fullmatch(r"enumeration of a code of \d+ codewords exceeds the budget of "
                        r"67108864; raise --budget to allow it\n", err)


@pytest.mark.parametrize("q,n,enumerator", [(3, 2, "1+4x+4x^2"), (5, 3, "1+12x+48x^2+64x^3")],
                         ids=["3-2", "5-3"])
def test_weights_full_code_walks_itself(capsys, tmp_path, q, n, enumerator):
    # The dual of the full [n, n] code is the zero code, so there is no smaller side.
    gen = tmp_path / "id.txt"
    gen.write_text(f"{n} {n}\n" + "".join(" ".join(str(int(i == j)) for j in range(n)) + "\n"
                                         for i in range(n)))
    argv = ["weights", "--generator", str(gen), "--q", str(q), "--method", "brute"]
    rc, out, err = run(capsys, *argv, "--json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["results"]["distribution"] == [
        str(comb(n, w) * (q - 1) ** w) for w in range(n + 1)]
    rc, out, err = run(capsys, *argv)
    assert (rc, out.splitlines()[0], err) == (0, f"enumerator: {enumerator}", "")


@pytest.mark.parametrize(
    "args,expected",
    [
        (("--q", "5", "--domain", "star", "--m", "2", "--b", "1", "--method", "both"), "1"),
        (("--q", "4", "--domain", "full", "--m", "2", "--b", "0"), "0"),
        (("--q", "9", "--domain", "star", "--m", "0", "--b", "0"), "1"),
        # m = 4090 of the 4095 units: the DP runs at size 5 on the complements,
        # N(m, b) = N(n-m, sum - b), and must equal the closed form.
        (("--q", "4096", "--domain", "star", "--m", "4090", "--b", "1", "--method", "both"),
         "2337046748025"),
    ],
)
def test_subsetsum_examples(capsys, args, expected):
    rc, out, _ = run(capsys, "subsetsum", *args)
    assert rc == 0
    assert out.strip() == expected


def test_subsetsum_json(capsys):
    rc, out, _ = run(
        capsys, "subsetsum", "--q", "5", "--domain", "star", "--m", "2", "--b", "1",
        "--json",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["results"]["count"] == "1"
    assert report["oracle_agreement"]["closed_form_vs_dp"] is True


def test_inexact_li_wan_division_exits4(capsys, monkeypatch):
    # C(5, 2) + 1 = 11 is not divisible by q = 5: the closed form fails its own
    # exactness check, a verification failure like a disagreement with the DP.
    monkeypatch.setattr(egrl.subsetsum, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(InconsistentInput):
        egrl.subsetsum.count_li_wan(FieldCtx.from_order(5), "full", 2, 1)
    rc, out, err = run(capsys, "subsetsum", "--q", "5", "--domain", "full", "--m", "2",
                       "--b", "1", "--method", "lw")
    assert (rc, out) == (4, "")
    assert err == ("verification failed: InconsistentInput: closed form broke down at q=5, "
                   "domain=full, m=2, b=1\n")


def test_sweep_small_clean(capsys):
    rc, out, _ = run(
        capsys, "sweep", "--q-list", "5,7", "--k-list", "4", "--trials", "4",
        "--seed", "7",
    )
    assert rc == 0
    assert "0 disagreements" in out


def test_sweep_broad_grid_clean(capsys):
    # Every field order from 5 to 16 and k = 3 to 6: random trials and the special
    # instance of each mixing class, each through every check.
    rc, out, err = run(capsys, "sweep", "--q-list", "5,7,8,9,11,13,16", "--k-list", "3,4,5,6",
                       "--trials", "10", "--seed", "1")
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "0 disagreements"


def test_sweep_deterministic_output(capsys):
    argv = ["sweep", "--q-list", "5", "--k-list", "4", "--trials", "3",
            "--seed", "3", "--json"]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_sweep_records_small_k_as_skipped(capsys):
    rc, out, _ = run(capsys, "sweep", "--q-list", "5", "--k-list", "2,4", "--trials", "2")
    assert rc == 0
    assert out.splitlines()[0] == "q=5 k=2: skipped (k < 3)"
    assert "0 disagreements" in out
    rc, out, _ = run(capsys, "sweep", "--q-list", "5", "--k-list", "2", "--json")
    assert rc == 0
    assert json.loads(out)["results"]["records"] == [{"q": "5", "k": "2", "skipped": "k < 3"}]


def test_sweep_empty_lists_usage_error(capsys):
    assert run(capsys, "sweep", "--q-list", "", "--k-list", "4") == (
        2, "", "InvalidParams: sweep needs nonempty --q-list and --k-list\n")


def test_instance_file_roundtrip(capsys, tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text(
        "field: p=13 s=1 mod=0,1\nn: 5\nk: 5\nell: 2\nt: 0\n"
        "alpha: 1,2,7,8,9\nv: 1,1,1,1,1\nb: 1\nM: 1,1,1,2\n"
    )
    rc, out, _ = run(capsys, "classify", "--instance", str(inst))
    assert rc == 0
    assert "MDS: true" in out


def test_json_report_instance_loads_back(capsys, tmp_path):
    # A --json report's instance block (decimal strings, lists of them) is
    # itself an --instance document for the same code.
    argv = ["--q", "9", "--mod", "2,1,1", "--k", "5", "--b", "2", "--M", "1,1,2,1", "--special"]
    rc, out, _ = run(capsys, "classify", *argv, "--verify", "--json")
    instance = json.loads(out)["instance"]
    assert rc == 0 and instance["k"] == "5" and instance["alpha"][0] == "1"
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    assert run(capsys, "classify", "--instance", str(inst), "--verify") == \
        run(capsys, "classify", *argv, "--verify")


@pytest.mark.parametrize("header", ["q=9", "p=3 s=2 mod=2,1,1 extra", "p=3 s=x mod=2,1,1"])
@pytest.mark.parametrize("form", ["text", "json"])
def test_instance_malformed_field_header_exit2(capsys, tmp_path, header, form):
    doc = {"field": header, "n": 5, "k": 5, "ell": 2, "t": 0, "alpha": [1, 2, 3, 4, 5],
           "v": [1, 1, 1, 1, 1], "b": 1, "M": [1, 1, 1, 2]}
    inst = tmp_path / "inst"
    inst.write_text(json.dumps(doc) if form == "json" else "\n".join(
        f"{key}: {','.join(map(str, val)) if isinstance(val, list) else val}"
        for key, val in doc.items()))
    rc, out, err = run(capsys, "construct", "--instance", str(inst))
    assert (rc, out) == (2, "")
    assert err == f'FieldError: field header must read "p=<p> s=<s> mod=<c_0,...,c_s>", ' \
                  f"got {header!r}\n"


@pytest.mark.parametrize("extra,line", [
    ([("k", 3)], "repeated key 'k'"),
    ([("bogus", 7)], "unknown key 'bogus'"),
], ids=["repeated", "unknown"])
@pytest.mark.parametrize("form", ["text", "json"])
def test_instance_repeated_or_unknown_key_exit2(capsys, tmp_path, extra, line, form):
    pairs = [("field", "p=13 s=1 mod=0,1"), ("n", 5), ("k", 5), ("alpha", [1, 2, 7, 8, 9]),
             ("v", [1, 1, 1, 1, 1]), ("b", 1), ("M", [1, 1, 1, 2])] + extra

    def document(pairs):
        if form == "json":
            return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
        return "\n".join(f"{key}: {','.join(map(str, val)) if isinstance(val, list) else val}"
                         for key, val in pairs)

    inst = tmp_path / "inst"
    inst.write_text(document(pairs))
    rc, out, err = run(capsys, "construct", "--instance", str(inst))
    assert (rc, out, err) == (2, "", f"InvalidParams: malformed instance: {line}\n")
    inst.write_text(document(pairs[:-1]))
    assert run(capsys, "construct", "--instance", str(inst))[0] == 0


@pytest.mark.parametrize("ell", [-1, 0, 6])
def test_instance_bad_ell_refused_before_mixing_matrix(capsys, tmp_path, ell):
    doc = {"field": "p=13 s=1 mod=0,1", "n": 5, "k": 5, "ell": ell, "t": 0,
           "alpha": [1, 2, 7, 8, 9], "v": [1, 1, 1, 1, 1], "b": 1, "M": [1]}
    (tmp_path / "inst.json").write_text(json.dumps(doc))
    rc, out, err = run(capsys, "construct", "--instance", str(tmp_path / "inst.json"))
    assert (rc, out, err) == (2, "", f"RangeViolation: need 1 <= ell <= k, got ell={ell}, k=5\n")


def test_missing_instance_flags_exit2(capsys):
    rc, _, err = run(capsys, "classify", "--q", "13")
    assert rc == 2


@pytest.mark.parametrize("argv,line", [
    (["classify", "--k", "5", "--alpha", "1,2,7,8,9", "--b", "1", "--M", "1,1,1,2"],
     "InvalidParams: an instance needs --q (or --instance FILE)"),
    (["classify", "--q", "13", "--k", "5", "--alpha", "1,2,7,8,9", "--b", "1", "--M", "1,1,1"],
     "InvalidParams: M needs 4 row-major entries, got 3"),
    (["classify", "--instance", "short-M.txt"],  # files and flags share one rule
     "InvalidParams: M needs 4 row-major entries, got 3"),
    (["classify", "--special", "--q", "9", "--b", "1", "--M", "1,1,1,2"],
     "InvalidParams: an inline instance needs --k, --b, --M and one of --alpha and --special"),
    (["classify", "--special", "--q", "13", "--k", "5", "--alpha", "1,2,3,4", "--b", "1",
      "--M", "1,1,1,2"],
     "InvalidParams: an inline instance needs --k, --b, --M and one of --alpha and --special"),
    (["classify", "--q", "13", "--n", "7", "--k", "4", "--alpha", "1,2,3,4,5,6", "--b", "1",
      "--M", "1,1,1,2"], "InvalidParams: --n 7 disagrees with 6 evaluation points"),
    (["weights", "--q", "3", "--generator", "rep.txt"],
     "InvalidParams: a raw generator file supports --method brute only"),
    (["weights", "--generator", "rep.txt", "--method", "brute"],
     "InvalidParams: --generator needs --q"),
    (["construct", "--q", "13", "--k", "4", "--alpha", "1,2,3,4,5,6", "--b", "1", "--ell", "0",
      "--M", ""], "RangeViolation: need 1 <= ell <= k, got ell=0, k=4"),
    (["construct", "--q", "13", "--k", "4", "--alpha", "1,2,3,4,5,6", "--b", "1", "--ell=-1",
      "--M", "1"], "RangeViolation: need 1 <= ell <= k, got ell=-1, k=4"),
    (["construct", "--q", "13", "--k", "4", "--alpha", "1,2,3,4,5,6", "--b", "1", "--ell", "5",
      "--M", "1,1,1,2"], "RangeViolation: need 1 <= ell <= k, got ell=5, k=4"),
    (["construct", "--instance", "p13.txt"],
     "ValueError: prime fields take the placeholder modulus (0, 1)"),
    # An empty value is a value, not an absent flag.
    (["construct", "--q", "13", "--k", "4", "--alpha", "1,2,3,4,5", "--v", "", "--b", "1",
      "--M", "1,1,1,2"], "RangeViolation: alpha and v must have length n=5, got 5 and 0"),
    (["construct", "--q", "13", "--mod", "", "--k", "4", "--alpha", "1,2,3,4,5", "--b", "1",
      "--M", "1,1,1,2"], "ValueError: prime fields take the placeholder modulus (0, 1)"),
    (["construct", "--instance", "", "--q", "13", "--k", "4", "--alpha", "1,2,3,4,5,6",
      "--b", "1", "--M", "1,1,1,2"],
     "FileNotFoundError: [Errno 2] No such file or directory: ''"),
    (["weights", "--generator", "", "--q", "13", "--k", "4", "--alpha", "1,2,3,4,5,6",
      "--b", "1", "--M", "1,1,1,2", "--method", "brute"],
     "FileNotFoundError: [Errno 2] No such file or directory: ''"),
    (["construct", "--q", "13", "--k", "4", "--alpha", "1,2,3,4,5,6", "--b", "1",
      "--M", "1,1,1,2", "--out", ""],
     "FileNotFoundError: [Errno 2] No such file or directory: ''"),
    (["construct", "--q", "13", "--k", "4", "--alpha", "1,2,3,4,5,6", "--b", "1",
      "--M", "1,1,1,2", "--order", "gen"], "InvalidParams: --order needs --special"),
    # One instance source per command: a file takes no instance flags beside it.
    (["weights", "--generator", "rep.txt", "--q", "3", "--method", "brute", "--special",
      "--t", "5", "--k", "9", "--order", "gen"],
     "InvalidParams: --generator takes no instance flags but --q and --mod, got --k"),
    (["weights", "--generator", "rep.txt", "--q", "3", "--method", "brute", "--special"],
     "InvalidParams: --generator takes no instance flags but --q and --mod, got --special"),
    (["construct", "--instance", "inst.txt", "--k", "3", "--alpha", "1,2,3", "--ell", "7"],
     "InvalidParams: --instance takes no inline instance flags, got --k"),
    (["construct", "--instance", "inst.txt", "--k", "3"],
     "InvalidParams: --instance takes no inline instance flags, got --k"),
    (["classify", "--instance", "inst.txt", "--q", "7"],
     "InvalidParams: --instance takes no inline instance flags, got --q"),
    (["weights", "--instance", "inst.txt", "--generator", "rep.txt", "--q", "3",
      "--method", "brute"], "InvalidParams: give --instance or --generator, not both"),
], ids=["no-q", "short-M", "short-M-file", "special-no-k", "special-and-alpha", "n-mismatch",
        "generator-both", "generator-no-q", "ell-zero", "ell-negative", "ell-above-k",
        "prime-field-modulus",
        "empty-v", "empty-mod", "empty-instance", "empty-generator", "empty-out",
        "order-without-special", "generator-and-flags", "generator-and-special",
        "instance-and-flags", "instance-and-k",
        "instance-and-q", "instance-and-generator"])
def test_inline_flag_refusals_exit2(capsys, tmp_path, monkeypatch, argv, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rep.txt").write_text("1 3\n1 1 1\n")
    (tmp_path / "p13.txt").write_text("field: p=13 s=1 mod=5,5,5\nn: 5\nk: 5\nell: 2\nt: 0\n"
                                      "alpha: 1,2,7,8,9\nv: 1,1,1,1,1\nb: 1\nM: 1,1,1,2\n")
    (tmp_path / "short-M.txt").write_text("field: p=13 s=1 mod=0,1\nn: 5\nk: 5\n"
                                          "alpha: 1,2,7,8,9\nv: 1,1,1,1,1\nb: 1\nM: 1,1,1\n")
    (tmp_path / "inst.txt").write_text("field: p=13 s=1 mod=0,1\nn: 5\nk: 5\n"
                                       "alpha: 1,2,7,8,9\nv: 1,1,1,1,1\nb: 1\nM: 1,1,1,2\n")
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", line + "\n")


def _inline_instance_actions():
    """The instance flags that construct, classify and weights share and sweep lacks."""
    subs = next(a for a in egrl.cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    common = set.intersection(*({a.dest for a in subs[c]._actions}
                                for c in ("construct", "classify", "weights")))
    common -= {a.dest for a in subs["sweep"]._actions} | {"instance"}
    return [a for a in subs["construct"]._actions if a.dest in common]


@pytest.mark.parametrize("action", _inline_instance_actions(), ids=lambda a: a.dest)
def test_instance_refuses_every_inline_flag(capsys, tmp_path, monkeypatch, action):
    # _one_source keeps its own list of the flags _add_instance_flags defines;
    # a flag added to one and not the other fails here.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.txt").write_text("field: p=13 s=1 mod=0,1\nn: 5\nk: 5\n"
                                       "alpha: 1,2,7,8,9\nv: 1,1,1,1,1\nb: 1\nM: 1,1,1,2\n")
    value = [] if action.nargs == 0 else [(action.choices or ["3"])[0]]
    rc, out, err = run(capsys, "construct", "--instance", "inst.txt",
                       action.option_strings[0], *value)
    assert (rc, out, err) == (
        2, "", f"InvalidParams: --instance takes no inline instance flags, got --{action.dest}\n")


@pytest.mark.parametrize("mix", [["--M", "1,1,1,2"], ["--ell", "1", "--M", "1"],
                                 ["--t", "1", "--M", "1,1,1,2"],
                                 ["--v", ",".join(["2"] * 12), "--n", "12", "--M", "1,0,5,1"]],
                         ids=["default", "ell-1", "t-1", "v-and-n"])
@pytest.mark.parametrize("order", ["asc", "gen"])
def test_special_only_picks_the_points(capsys, mix, order):
    # --special is --alpha over F_q^* (ascending codes or generator powers);
    # every other flag reads the same with it as without it.
    ctx = FieldCtx.from_order(13)
    alpha = ctx.units() if order == "asc" else ctx.generator_powers()
    base = ["classify", "--q", "13", "--k", "5", "--b", "1", *mix, "--verify", "--json"]
    rc, out, err = run(capsys, *base, "--special", "--order", order)
    assert (rc, err) == (0, "")
    special = json.loads(out)
    rc, out, _ = run(capsys, *base, "--alpha", ",".join(map(str, alpha)))
    assert (rc, {**json.loads(out), "argv": special["argv"]}) == (0, special)


@pytest.mark.parametrize("argv,lines", [
    # A t = 1 request is classified as t = 1, not as the t = 0 special family.
    (["--k", "5", "--special", "--t", "1", "--M", "1,1,1,2"],
     ["criteria unsupported for (ell,t)=(2,1): brute-force only",
      "parameters: [15,5,9] other", "dual parameters: [15,10,5]"]),
    (["--k", "5", "--special", "--ell", "1", "--M", "1"],
     ["criteria unsupported for (ell,t)=(1,0): brute-force only",
      "parameters: [14,5,10] MDS", "dual parameters: [14,9,6]"]),
    (["--k", "4", "--alpha", "1,2,3,4,5,6", "--ell", "1", "--M", "1"],
     ["criteria unsupported for (ell,t)=(1,0): brute-force only",
      "parameters: [8,4,5] MDS", "dual parameters: [8,4,5]"]),
    (["--k", "4", "--alpha", "1,2,3,4,5,6", "--ell", "4",
      "--M", "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"],
     ["criteria unsupported for (ell,t)=(4,0): brute-force only",
      "parameters: [11,4,6] other", "dual parameters: [11,7,2]"]),
], ids=["special-t1", "special-ell1", "ell-1", "ell-k"])
def test_inline_shapes_at_the_ell_and_t_bounds(capsys, argv, lines):
    rc, out, err = run(capsys, "classify", "--q", "13", "--b", "1", *argv)
    assert (rc, out.splitlines(), err) == (0, lines, "")


def _without_timing(doc: dict) -> dict:
    # The echoed argv names the flag too; nothing else may differ.
    timing = doc.pop("timing")
    assert list(timing) == ["seconds"]
    assert re.fullmatch(r"\d+\.\d{3}", timing["seconds"]), timing
    assert doc["argv"].pop() == "--timing"
    return doc


@pytest.mark.parametrize("argv", [
    ["classify", "--q", "13", "--k", "5", "--alpha", "1,2,7,8,9", "--b", "1", "--M", "1,0,5,1",
     "--verify"],
    ["subsetsum", "--q", "5", "--domain", "star", "--m", "2", "--b", "1"],
], ids=["classify", "subsetsum"])
def test_timing_adds_only_a_json_field(capsys, argv):
    rc, text, _ = run(capsys, *argv)
    assert rc == 0
    assert run(capsys, *argv, "--timing") == (0, text, "")
    rc, plain, _ = run(capsys, *argv, "--json")
    assert rc == 0
    rc, timed, err = run(capsys, *argv, "--json", "--timing")
    assert (rc, err) == (0, "")
    assert _without_timing(json.loads(timed)) == json.loads(plain)


def test_oversized_addition_table_exit2_promptly(capsys):
    # q**3 = 2**45 codewords pass the budget, but the 2 GiB addition table is
    # refused before allocation; building GF(32768) takes about 0.02 s.
    started = time.perf_counter()
    rc, out, err = run(capsys, "weights", "--q", "32768", "--k", "3", "--alpha", "1,2,3,4",
                       "--b", "1", "--M", "1,1,1,2", "--method", "brute",
                       "--budget", "35184372088832")
    assert time.perf_counter() - started < 1.0
    assert (rc, out, err) == (2, "", "TableTooLarge: the addition table needs 2147483648 bytes, "
                                     "above the cap of 1073741824\n")


def test_oversized_enumeration_tables_exit2_promptly(capsys, tmp_path):
    # A [8192, 2] code at q = 2**16 passes the budget, but the multiples table
    # of its second row alone takes 1 GiB; the walk adds up its tables and
    # refuses before building.
    gen = tmp_path / "g.txt"
    gen.write_text("2 8192\n" + " ".join(map(str, range(1, 8193))) + "\n"
                   + " ".join(["1"] * 8192) + "\n")
    started = time.perf_counter()
    rc, out, err = run(capsys, "weights", "--generator", str(gen), "--q", "65536",
                       "--method", "brute", "--budget", "4294967296")
    assert time.perf_counter() - started < 1.0
    assert (rc, out) == (2, "")
    assert err == ("TableTooLarge: the enumeration tables need 5368709120 bytes, "
                   "above the cap of 1073741824\n")


SPECIAL_MIX = ["--b", "1", "--M", "1,1,1,2", "--special"]


def test_formula_weights_at_q_65536_exit2_promptly(capsys):
    # Both distributions of the special [65538, 5] code could take 8 GiB of digits;
    # the solver refuses them before any big-integer work.
    started = time.perf_counter()
    rc, out, err = run(capsys, "weights", "--q", "65536", "--k", "5", *SPECIAL_MIX,
                       "--method", "formula", "--json")
    assert time.perf_counter() - started < 1.0
    assert (rc, out, err) == (2, "", "TableTooLarge: the weight counts need 8590589964 bytes, "
                                     "above the cap of 134217728\n")


def test_construct_matrices_above_the_cap_exit2_promptly(capsys):
    # H of the special [65538, 5] code would hold 65533 x 65538 entries, about 172 GB
    # as Python ints; it is refused before P is built.  G alone (5 x 65538) still runs,
    # and is refused in its turn at k = 30000.
    started = time.perf_counter()
    rc, out, err = run(capsys, "construct", "--q", "65536", "--k", "5", *SPECIAL_MIX,
                       "--with-h")
    assert time.perf_counter() - started < 1.0
    assert (rc, out, err) == (2, "", "TableTooLarge: the parity-check matrix needs "
                                     "171796070160 bytes, above the cap of 1073741824\n")
    rc, out, err = run(capsys, "construct", "--q", "65536", "--k", "5", *SPECIAL_MIX)
    assert (rc, err, out.count("\n")) == (0, "", 7)  # "G", its shape and its five rows
    assert run(capsys, "construct", "--q", "65536", "--k", "30000", *SPECIAL_MIX) == (
        2, "", "TableTooLarge: the generator matrix needs 78645600000 bytes, "
               "above the cap of 1073741824\n")


def test_special_classify_at_q_65536_promptly(capsys):
    # Li-Wan decides both sizes and the whole-field witness is {1, 2, 4, 6},
    # in about 0.3 s; the two DP passes over the 65,535 units took about 18 s.
    started = time.perf_counter()
    rc, out, err = run(capsys, "classify", "--q", "65536", "--k", "5", *SPECIAL_MIX)
    assert time.perf_counter() - started < 3.0
    assert (rc, out, err) == (0, "MDS: false; witness I_1={1,2,4,6} j=1\ndual AMDS: true\n", "")


@pytest.mark.parametrize("q, k", [(65536, 100), (8192, 1000)])
def test_special_classify_witness_at_field_scale(capsys, q, k):
    # The DP's checkpoints would need 3.4 GB (q = 2**16) and 1.5 GB (q = 2**13);
    # the whole-field witness needs a few hundred kB and well under a second.
    started = time.perf_counter()
    rc, out, err = run(capsys, "classify", "--q", str(q), "--k", str(k), *SPECIAL_MIX)
    assert time.perf_counter() - started < 3.0
    assert (rc, err) == (0, "")
    found = re.fullmatch(r"MDS: false; witness I_1=\{([\d,]+)\} j=([12])\ndual AMDS: true\n", out)
    assert found is not None
    ctx, subset, j = FieldCtx.from_order(q), [int(x) for x in found[1].split(",")], int(found[2])
    assert len(set(subset)) == len(subset) == k - 1 and 0 not in subset
    assert ctx.sum(subset) == j  # the ratio a_2j / a_1j of the mix [[1, 1], [1, 2]]


def test_one_row_walk_needs_no_table(capsys, tmp_path):
    # A [8192, 1] code at q = 2**16 walks its one row from -row_0 alone.
    gen = tmp_path / "g.txt"
    gen.write_text("1 8192\n" + " ".join(map(str, range(1, 8193))) + "\n")
    rc, out, err = run(capsys, "weights", "--generator", str(gen), "--q", "65536",
                       "--method", "brute")
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "enumerator: 1+65535x^8192"


@pytest.mark.parametrize("command", [
    ["construct", "--q", "13", "--k", "5", "--alpha", "1,2,7,8,9", "--b", "1", "--M", "1,1,1,2"],
    ["subsetsum", "--q", "5", "--domain", "star", "--m", "2", "--b", "1"],
], ids=["construct", "subsetsum"])
def test_budget_is_refused_where_nothing_is_enumerated(capsys, command):
    rc, out, err = run(capsys, *command, "--budget", "4096")
    assert (rc, out) == (2, "")
    assert err == "egrl: error: unrecognized arguments: --budget 4096\n"
    assert run(capsys, *command)[0] == 0


@pytest.mark.parametrize("method", ["dp", "both"])
def test_subsetsum_oversized_table_exit2(capsys, method):
    # The counting table would take about 8.4 GB; it is refused before allocation.
    started = time.perf_counter()
    rc, out, err = run(capsys, "subsetsum", "--q", "4096", "--domain", "star", "--m", "2000",
                       "--b", "1", "--method", method)
    assert time.perf_counter() - started < 1.0
    assert (rc, out) == (2, "")
    assert err.startswith("TableTooLarge: ") and err.count("\n") == 1


def test_cached_parser_matches_fresh_processes(capsys, monkeypatch):
    # One process reuses one parser: a usage error, --help and a normal
    # command must print and exit exactly as they do in fresh interpreters.
    sequence = [
        ["subsetsum", "--q", "5", "--domain", "nowhere"],
        ["--help"],
        ["subsetsum", "--q", "5", "--domain", "star", "--m", "2", "--b", "1"],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    egrl.cli._build_parser.cache_clear()
    in_process = [run(capsys, *argv) for argv in sequence]
    assert egrl.cli._build_parser() is egrl.cli._build_parser()
    src = os.path.dirname(os.path.dirname(egrl.cli.__file__))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    script = "import sys; from egrl.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = []
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [rc for rc, _, _ in in_process] == [2, 0, 0]
    assert in_process == fresh


def test_counts_render_under_caller_digit_limit(capsys):
    # Dual counts at q = 512 reach about 1,370 digits and the subset count at
    # q = 4096 about 1,230: a caller's limit of 640 must neither break the
    # output nor be changed by it.
    formula = ["weights", "--special", "--q", "512", "--k", "8", "--b", "1",
               "--M", "1,1,1,2", "--method", "formula"]
    lw = ["subsetsum", "--q", "4096", "--domain", "star", "--m", "2047", "--b", "0",
          "--method", "lw"]
    argvs = [formula, formula + ["--json"], lw, lw + ["--json"]]
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [run(capsys, *argv) for argv in argvs]
        sys.set_int_max_str_digits(640)
        got = [run(capsys, *argv) for argv in argvs]
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert [rc for rc, _, _ in expected] == [0, 0, 0, 0]
    assert got == expected
    dual = json.loads(expected[1][1])["results"]["dual_distribution"]
    assert max(map(len, dual)) > 640
    assert len(expected[2][1].strip()) > 640


def test_mismatch_line_renders_under_caller_digit_limit(capsys, monkeypatch):
    # The closed form ≠ DP line is written out in full, limit or not.
    real = egrl.cli.count_li_wan
    monkeypatch.setattr(egrl.cli, "count_li_wan", lambda *a: real(*a) + 10**700)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        got = run(capsys, "subsetsum", "--q", "5", "--domain", "star", "--m", "2", "--b", "1")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == (4, "", f"verification failed: InconsistentInput: closed form 1{'0' * 699}1 "
                          "!= dp 1\n")


def _one_line_failure(argv: list[str]) -> None:
    # Any input ends in a documented exit code, never a traceback, and a
    # failure says why in exactly one stderr line.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(alphabet="0123456789 -\n\tx", max_size=30),
                      st.sampled_from(["", "\n \n", "2", "1 3", "1 3\n1 1", "0 4",
                                       "2 2\n1 0\n0 1"])),
       q=st.sampled_from([2, 3, 9]))
def test_generator_file_text_exits_documented(tmp_path_factory, text, q):
    gen = tmp_path_factory.mktemp("gen") / "g.txt"
    gen.write_text(text)
    _one_line_failure(["weights", "--q", str(q), "--generator", str(gen), "--method", "brute",
                       "--budget", "4096"])


_ORDERS = {5: (5, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2), 27: (3, 3)}


@st.composite
def modulus_texts(draw):
    q = draw(st.sampled_from(sorted(_ORDERS)))
    p, s = _ORDERS[q]
    digit = st.integers(-3, 6)
    # Half the lists have s+1 entries and a leading coefficient of 1 mod p,
    # so that accepted extension moduli come up too.
    monic = st.tuples(st.lists(digit, min_size=s, max_size=s),
                      st.sampled_from([c for c in range(-3, 7) if c % p == 1]))
    coeffs = draw(st.lists(digit, max_size=6) | monic.map(lambda pair: pair[0] + [pair[1]]))
    return q, coeffs


@settings(max_examples=200, deadline=None)
@given(modulus_texts())
def test_subsetsum_modulus_text_exits(case):
    # --mod=TEXT, because argparse reads "--mod -1,0" as an option.
    q, coeffs = case
    p, s = _ORDERS[q]
    f = tuple(c % p for c in coeffs)
    if s == 1:  # an empty --mod= is a modulus too, and refused
        accepted = coeffs == [0, 1]  # compared before reduction mod p
    else:
        accepted = len(f) == s + 1 and f[-1] == 1 and poly_is_irreducible(p, f)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["subsetsum", "--q", str(q), f"--mod={','.join(map(str, coeffs))}",
                   "--domain", "star", "--m", "2", "--b", "1"])
    if accepted:
        assert (rc, err.getvalue()) == (0, "")
    else:
        assert (rc, out.getvalue()) == (2, "")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@pytest.mark.parametrize("argv,expected", [
    # x^2 + 1 is irreducible over GF(3) but not primitive; (x + 1)^2 is refused.
    (["--q", "9", "--mod", "1,0,1", "--domain", "star", "--m", "2", "--b", "1"], (0, "3\n", "")),
    (["--q", "9", "--mod", "1,2,1", "--domain", "star", "--m", "2", "--b", "1"],
     (2, "", "ReducibleModulus: modulus (1, 2, 1) factors over GF(3)\n")),
    # GF(2^16) by its default modulus; the default GF(2^8) modulus times its reciprocal
    # is refused.
    (["--q", "65536", "--domain", "full", "--m", "0", "--b", "0", "--method", "both"],
     (0, "1\n", "")),
    (["--q", "65536", "--mod", "1,0,1,1,0,1,0,0,1,0,0,1,0,1,1,0,1", "--domain", "full",
      "--m", "0", "--b", "0", "--method", "lw"],
     (2, "", "ReducibleModulus: modulus (1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1) "
             "factors over GF(2)\n")),
], ids=["gf9-accepted", "gf9-reducible", "gf65536-default", "gf65536-reducible"])
def test_subsetsum_supplied_moduli(capsys, argv, expected):
    assert run(capsys, "subsetsum", *argv) == expected


def _is_prime_power(q: int) -> bool:
    # Trial division: strip the smallest divisor above 1 and see what is left.
    if q < 2:
        return False
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


@settings(max_examples=100, deadline=None)
@given(q=st.integers(-2, (1 << 16) + 16))
@example(q=1 << 16)
@example(q=(1 << 16) + 1)
def test_subsetsum_field_order_exits(q):
    # --q=Q, because argparse reads "--q -2" as an option.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["subsetsum", f"--q={q}", "--domain", "full", "--m", "0", "--b", "0",
                   "--method", "lw"])
    if q <= 1 << 16 and _is_prime_power(q):
        assert (rc, err.getvalue()) == (0, "")
    else:
        assert (rc, out.getvalue()) == (2, "")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


_INSTANCE = {"field": "p=13 s=1 mod=0,1", "n": 5, "k": 5, "ell": 2, "t": 0,
             "alpha": [1, 2, 7, 8, 9], "v": [1, 1, 1, 1, 1], "b": 1, "M": [1, 0, 5, 1]}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 14) | st.floats() | st.text(max_size=6)
    | st.sampled_from(["p=5 s=1 mod=0,1", "p=3 s=2 mod=2,2,1", "p=3 s=40000000 mod=1",
                       "p=4 s=1 mod=0,1", "1,2", "7"]),
    lambda inner: st.lists(inner, max_size=6), max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(changed=st.dictionaries(st.sampled_from(sorted(_INSTANCE)), _JSON_VALUES, max_size=3),
       dropped=st.sets(st.sampled_from(sorted(_INSTANCE)), max_size=1))
def test_instance_json_value_types_exit_documented(tmp_path_factory, changed, dropped):
    doc = {key: value for key, value in {**_INSTANCE, **changed}.items() if key not in dropped}
    inst = tmp_path_factory.mktemp("inst") / "inst.json"
    inst.write_text(json.dumps(doc))
    _one_line_failure(["classify", "--instance", str(inst), "--budget", "4096"])


_TEXT_VALUES = st.one_of(
    st.text(alphabet="0123456789,-=:# psmod\n", max_size=12),
    st.lists(st.integers(-2, 14) | st.sampled_from([10**40, -10**40]), max_size=6)
    .map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["p=5 s=1 mod=0,1", "p=3 s=2 mod=2,2,1", "p=3 s=40000000 mod=1",
                     "p=4 s=1 mod=0,1", "1.5", "{", "[1]", "", "1,,2", "１"]),
)


def _text_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@settings(max_examples=300, deadline=None)
@given(changed=st.dictionaries(st.sampled_from(sorted(_INSTANCE)), _TEXT_VALUES, max_size=3),
       dropped=st.sets(st.sampled_from(sorted(_INSTANCE)), max_size=1),
       extra=st.lists(st.sampled_from(["# note", "k: 4", "x: 1", "alpha", ":", "{"]),
                      max_size=2))
def test_instance_text_values_exit_documented(tmp_path_factory, changed, dropped, extra):
    # The text form of the instance document: values, keys and stray lines fuzzed.
    doc = {key: value for key, value in {**_INSTANCE, **changed}.items() if key not in dropped}
    inst = tmp_path_factory.mktemp("inst") / "inst.txt"
    inst.write_text("\n".join([*(f"{key}: {_text_value(v)}" for key, v in doc.items()), *extra]))
    _one_line_failure(["classify", "--instance", str(inst), "--budget", "4096"])


@pytest.mark.parametrize("path,text", [
    ("--generator", ""),
    ("--generator", "1 2 3\n1 1 1\n"),
    ("--instance", json.dumps({**_INSTANCE, "field": 3})),
    ("--instance", json.dumps({**_INSTANCE, "alpha": 7})),
    ("--instance", json.dumps({**_INSTANCE, "n": [5]})),
    ("--instance", json.dumps({**_INSTANCE, "b": float("inf")})),
    # int() would truncate these to a valid instance.
    ("--instance", json.dumps({**_INSTANCE, "n": 5.9})),
    ("--instance", json.dumps({**_INSTANCE, "v": [True, 1, 1, 1, 1]})),
    ("--instance", json.dumps({**_INSTANCE, "alpha": [1.5, 2, 7, 8, 9]})),
    # Iterating a string would read these one character per code.
    ("--instance", json.dumps({**_INSTANCE, "alpha": "12789"})),
    ("--instance", json.dumps({**_INSTANCE, "M": "1051"})),
    # The JSON decoder recurses once per level, past the recursion limit here.
    ("--instance", '{"n": ' + "[" * 1000 + "]" * 1000 + "}"),
], ids=["empty-generator", "three-number-header", "field-int", "alpha-int", "n-list",
        "b-infinity", "n-float", "v-bool", "alpha-float", "alpha-string", "M-string",
        "nested-1000-deep"])
def test_malformed_input_files_exit2(capsys, tmp_path, path, text):
    target = tmp_path / "input"
    target.write_text(text)
    argv = (["weights", "--q", "5", "--generator", str(target), "--method", "brute"]
            if path == "--generator" else ["classify", "--instance", str(target)])
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    expected = "DimMismatch: " if path == "--generator" else "InvalidParams: malformed instance: "
    assert err.startswith(expected) and err.count("\n") == 1


_FLAG_INTS = st.one_of(st.integers(-3, 20), st.integers(-10**30, 10**30),
                       st.sampled_from([0, -1, 10**40]))
_FLAG_LISTS = st.one_of(
    st.lists(st.integers(-2, 20), max_size=18).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=5)
    .map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,- x", max_size=20),
)


@st.composite
def inline_argvs(draw):
    # A well-formed instance for the drawn q, then some flags dropped or
    # replaced by a fuzzed value, so the draws reach past the flag parsing.
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16]))
    n = draw(st.integers(1, q))
    alpha = draw(st.permutations(range(q)))[:n]
    flags = {"k": draw(st.integers(min(3, n), n)), "b": draw(st.integers(1, max(1, q - 1))),
             "alpha": ",".join(map(str, alpha)),
             "M": ",".join(str(draw(st.integers(0, q - 1))) for _ in range(4))}
    for flag, values in [("k", _FLAG_INTS), ("b", _FLAG_INTS), ("ell", _FLAG_INTS),
                         ("t", _FLAG_INTS), ("n", _FLAG_INTS), ("alpha", _FLAG_LISTS),
                         ("v", _FLAG_LISTS), ("M", _FLAG_LISTS)]:
        change = draw(st.sampled_from(["keep"] * 8 + ["fuzz", "drop"]))
        if change == "fuzz":
            flags[flag] = draw(values)
        elif change == "drop":
            flags.pop(flag, None)
    command = draw(st.sampled_from(["construct", "classify", "weights"]))
    special = draw(st.integers(0, 3)) == 0
    if special and draw(st.integers(0, 3)):  # --special takes the place of --alpha
        flags.pop("alpha", None)
    argv = [command, f"--q={q}", *(f"--{flag}={value}" for flag, value in flags.items())]
    argv += ["--special"] * special
    if special or draw(st.integers(0, 7)) == 0:
        argv += [f"--order={draw(st.sampled_from(['asc', 'gen']))}"]
    extra = {"construct": ["--with-h"], "classify": ["--verify"],
             "weights": ["--method=formula", "--method=brute"]}[command]
    # construct enumerates nothing, so --budget there is a one-line usage error.
    budget = ["--budget", "4096"] if command != "construct" or draw(st.booleans()) else []
    return argv + draw(st.lists(st.sampled_from(extra), max_size=1)) + budget


@settings(max_examples=200, deadline=None)
@given(argv=inline_argvs())
@example(argv=["classify", "--q=13", "--k=5", "--alpha=1,2,7,8,9", "--b=1", "--M=1,1,1,2",
               "--verify", "--budget", "4096"])
@example(argv=["weights", "--q=7", "--k=4", "--b=1", "--M=1,1,1,2", "--special",
               "--budget", "4096"])
@example(argv=["construct", "--q=13", "--k=5", "--alpha=1,2,3,4,5,6", "--b=1", "--t=1",
               "--M=1,1,1,2", "--with-h"])
def test_inline_flags_exit_documented(argv):
    # Only documented exits, never a traceback, one stderr line on failure.
    _one_line_failure(argv)


_SWEEP_PATTERNS = ["all-nonzero", "a22-zero", "a12-zero", "diagonal"]  # one per mixing class


@pytest.mark.parametrize("name,fake,line", [
    ("parity_check_matrix", lambda real: lambda p: FieldMatrix.identity(p.ctx, p.n + 3),
     "parity-check identity failed"),
    ("min_weight_census", lambda real: lambda p: {**real(p), (True, True, True): 1},
     "minimum-weight census disagrees with brute force"),
    ("special_nmds_distribution", lambda real: lambda p: real(p)[::-1],
     "closed-form distribution disagrees with brute force"),
    ("dual_support_pattern_census",
     lambda real: lambda p, budget: {**real(p, budget), (True, True, True): 1},
     "support-pattern census disagrees"),
], ids=["parity-check", "census", "closed-form", "support-pattern"])
def test_sweep_failure_lines_exit4(capsys, monkeypatch, name, fake, line):
    # Each check's failure line, forced by one broken library function as the CLI
    # sees it.  Every instance takes the one check path; the trial holds the
    # point 0 (n = q), so of these only the parity check reaches it.
    monkeypatch.setattr(egrl.cli, name, fake(getattr(egrl.cli, name)))
    rc, out, err = run(capsys, "sweep", "--q-list", "5", "--k-list", "4", "--trials", "1")
    trial = ["trial=0"] if name == "parity_check_matrix" else []
    fails = [f"FAIL q=5 k=4 {tag}: {line}"
             for tag in trial + [f"special[{pattern}]" for pattern in _SWEEP_PATTERNS]]
    assert (rc, err) == (4, "")
    assert out.splitlines() == [f"q=5 k=4: {len(fails)} new failures", *fails,
                                f"{len(fails)} disagreements"]


def test_sweep_budget_refuses_before_parity_check(capsys, monkeypatch):
    # The random trials classify first, so an over-budget instance never builds H.
    def never(params):
        raise AssertionError("parity-check matrix built before the budget check")

    monkeypatch.setattr(egrl.cli, "parity_check_matrix", never)
    rc, out, err = run(capsys, "sweep", "--q-list", "7", "--k-list", "4", "--trials", "1",
                       "--budget", "100")
    assert (rc, out) == (2, "")
    assert err == ("enumeration of a code of 2401 codewords exceeds the budget of 100; "
                   "raise --budget to allow it\n")


_FUZZ_INTS = st.one_of(st.integers(-3, 40), st.sampled_from([-1, 0, 10**40, -10**40]))


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 49, 64, 256]), m=_FUZZ_INTS,
       b=_FUZZ_INTS, domain=st.sampled_from(["star", "full"]),
       method=st.sampled_from(["lw", "dp", "both"]))
@example(q=256, m=128, b=255, domain="star", method="both")
def test_subsetsum_size_and_target_exits(q, m, b, domain, method):
    # --m=M and --b=B, because argparse reads "--m -1" as an option.
    _one_line_failure(["subsetsum", f"--q={q}", f"--domain={domain}", f"--m={m}", f"--b={b}",
                       f"--method={method}"])


_SWEEP_ENTRIES = st.one_of(
    st.integers(-3, 16).map(str), st.integers(3, 9).map(str),
    st.sampled_from(["", " ", "x", "1e3", "-0", "65537", str(10**40), str(-10**40)]),
)


@settings(max_examples=150, deadline=None)
@given(qs=st.lists(_SWEEP_ENTRIES, min_size=1, max_size=2),
       ks=st.lists(_SWEEP_ENTRIES, min_size=1, max_size=2),
       trials=st.integers(-1, 2), budget=st.sampled_from([1, 4096, 10**6]))
@example(qs=["5"], ks=["4"], trials=2, budget=4096)
def test_sweep_list_entries_exit_documented(qs, ks, trials, budget):
    # Malformed, empty, negative and huge --q-list / --k-list entries.
    _one_line_failure(["sweep", f"--q-list={','.join(qs)}", f"--k-list={','.join(ks)}",
                       f"--trials={trials}", f"--budget={budget}"])

"""Golden CLI transcripts: stdout, stderr, exit code and written files, byte for byte.

Each case runs ``egrl.cli.main`` in a fresh directory holding the same small
input files, optionally with one library function replaced (to reach the
mismatch exits that correct code never takes).  The expected transcripts in
``cli_golden.json`` were recorded before the CLI's report path was rewritten;
regenerate them only for a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py

``--timing`` is left out: its value is a wall-clock reading.  Help and usage
texts are formatted by argparse and are compared on every interpreter: at
``COLUMNS=80`` argparse prints them byte for byte alike on CPython 3.10.13,
3.11.7, 3.12.1 and 3.13.0, so a difference there is a change of egrl's parser.
Invalid choices, of the four choice flags and of the subcommand name, are
worded by egrl's parser itself, in one ``_check_value`` hook, as CPython
3.13.13's argparse lists them unquoted; a test replays them under that wording.

The same cases replay with the process-wide field memo keeping no field and
starting empty: output never depends on what the memo holds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

import egrl.cli
from egrl import field
from egrl.construction import MdsReport

GOLDEN = Path(__file__).with_name("cli_golden.json")

INPUTS = {
    "inst.txt": "field: p=13 s=1 mod=0,1\nn: 5\nk: 5\nell: 2\nt: 0\n"
                "alpha: 1,2,7,8,9\nv: 1,1,1,1,1\nb: 1\nM: 1,1,1,2\n",
    "inst.json": json.dumps({"field": "p=13 s=1 mod=0,1", "n": 5, "k": 5, "ell": 2, "t": 0,
                             "alpha": [1, 2, 7, 8, 9], "v": [1, 1, 1, 1, 1], "b": 1,
                             "M": [1, 0, 5, 1]}),
    "rep.txt": "1 3\n1 1 1\n",
    "mds.txt": "2 5\n1 1 1 1 1\n0 1 2 3 4\n",
    "zero.txt": "1 4\n0 0 0 0\n",
}

F9 = ["--q", "9", "--mod", "2,1,1", "--k", "5", "--b", "2", "--M", "1,1,2,1", "--special"]
F13 = ["--q", "13", "--k", "5", "--alpha", "1,2,7,8,9", "--b", "1"]
H13 = ["--q", "13", "--k", "4", "--n", "6", "--alpha", "1,2,3,4,5,6", "--b", "1",
       "--M", "1,1,1,2", "--with-h"]
SS5 = ["--q", "5", "--domain", "star", "--m", "2", "--b", "1"]
SWEEP = ["--q-list", "5,7", "--k-list", "2,4", "--trials", "2", "--seed", "7"]

# (argv, patch); every case but --help and the usage error also runs with --json.
CASES = [
    (["construct", *F9, "--order", "gen"], None),
    (["construct", *H13], None),
    (["construct", *F9, "--out", "g.txt"], None),
    (["construct", "--instance", "inst.txt"], None),
    (["construct", "--q", "13", "--k", "3", "--alpha", "1,1,2", "--b", "1",
      "--M", "1,1,1,2"], None),
    (["construct", "--q", "13", "--k", "5", "--alpha", "1,2,3,4,5,6", "--b", "1",
      "--t", "1", "--M", "1,1,1,2", "--with-h"], None),
    (["classify", *F13, "--M", "1,1,1,2", "--verify"], None),
    (["classify", *F13, "--M", "1,0,5,1"], None),
    # Size k-2 witnesses on the second mixing column: column 1 has no ratio
    # (a_11 = 0), then both columns have one and only the second is hit.
    (["classify", "--q", "13", "--k", "6", "--alpha", "11,2,7,5,10,3,12", "--b", "1",
      "--M", "0,9,10,0"], None),
    (["classify", "--q", "13", "--k", "4", "--alpha", "10,4,12,2,9", "--b", "1",
      "--M", "10,3,5,1", "--verify"], None),
    (["classify", "--q", "13", "--k", "5", "--alpha", "0,2,7,8,9", "--b", "1",
      "--M", "1,1,1,2"], None),
    (["classify", "--q", "13", "--k", "5", "--alpha", "1,2,3,4,5,6", "--b", "1",
      "--ell", "3", "--M", "1,1,0,0,1,1,1,0,1"], None),
    (["classify", "--instance", "inst.json", "--verify"], None),
    (["classify", *F13, "--M", "1,0,5,1", "--verify"], "mds_flipped"),
    (["classify", "--q", "13"], None),
    (["weights", *F9, "--order", "gen"], None),
    (["weights", *F9, "--method", "formula"], None),
    (["weights", *F9, "--method", "brute"], None),
    (["weights", *F9, "--method", "both"], "nmds_swapped"),
    (["weights", *F9, "--method", "brute", "--budget", "100"], None),
    (["weights", *F13, "--M", "1,1,1,2", "--method", "formula"], None),
    (["weights", "--q", "3", "--generator", "rep.txt", "--method", "brute"], None),
    (["weights", "--q", "7", "--generator", "mds.txt", "--method", "brute"], None),
    (["weights", "--q", "5", "--generator", "zero.txt", "--method", "brute"], None),
    (["subsetsum", *SS5], None),
    (["subsetsum", "--q", "4", "--domain", "full", "--m", "2", "--b", "0", "--method", "lw"],
     None),
    (["subsetsum", "--q", "27", "--domain", "full", "--m", "9", "--b", "5", "--method", "dp"],
     None),
    # A count of four 48-bit limbs, widened from two on the way.
    (["subsetsum", "--q", "243", "--domain", "star", "--m", "60", "--b", "5", "--method", "dp"],
     None),
    (["subsetsum", *SS5], "lw_off_by_one"),
    (["subsetsum", "--q", "6", "--domain", "star", "--m", "2", "--b", "1"], None),
    (["sweep", *SWEEP], None),
    (["sweep", "--q-list", "5", "--k-list", "4", "--trials", "2"], "mds_flipped"),
    (["sweep", "--q-list", "", "--k-list", "4"], None),
]
PLAIN = [
    (["--help"], None),
    *[([command, "--help"], None)
      for command in ("construct", "classify", "weights", "subsetsum", "sweep")],
    (["subsetsum", "--q", "5", "--domain", "nowhere"], None),
    (["bogus"], None),
]
ALL_CASES = [case for argv, patch in CASES for case in ((argv, patch), (argv + ["--json"], patch))]
ALL_CASES += PLAIN


@contextlib.contextmanager
def _patched(name: str | None):
    """Replace one library function as seen by the CLI, to force a mismatch exit."""
    if name is None:
        yield
        return
    attr = {"nmds_swapped": "special_nmds_distribution", "lw_off_by_one": "count_li_wan",
            "mds_flipped": "check_mds"}[name]
    real = getattr(egrl.cli, attr)
    fake = {
        "nmds_swapped": lambda params, *number: real(params, *number)[::-1],
        "lw_off_by_one": lambda *a: real(*a) + 1,
        "mds_flipped": lambda params: MdsReport(is_mds=not real(params).is_mds),
    }[name]
    setattr(egrl.cli, attr, fake)
    try:
        yield
    finally:
        setattr(egrl.cli, attr, real)


def transcript(argv: list[str], patch: str | None) -> dict:
    """Exit code, stdout, stderr and any file the command wrote, run in a fresh directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with _patched(patch), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = egrl.cli.main(list(argv))
        finally:
            os.chdir(cwd)
        written = {p.name: p.read_text(encoding="utf-8")
                   for p in sorted(Path(tmp).iterdir()) if p.name not in INPUTS}
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "written": written}


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _case_id(case) -> str:
    argv, patch = case
    return " ".join(argv) + (f" [{patch}]" if patch else "")


def test_golden_covers_every_case_and_exit_code():
    golden = _load()
    assert [[c["argv"], c["patch"]] for c in golden["cases"]] == [list(c) for c in ALL_CASES]
    assert {c["rc"] for c in golden["cases"]} == {0, 2, 3, 4}


@pytest.mark.parametrize("index", range(len(ALL_CASES)),
                         ids=[_case_id(c) for c in ALL_CASES])
def test_golden_transcript(index, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _load()["cases"][index]
    got = transcript(expected["argv"], expected["patch"])
    assert got == {key: expected[key] for key in got}


@pytest.mark.parametrize("budget", [1, field._MEMO_BYTES], ids=["keeps-nothing", "starts-empty"])
def test_golden_transcripts_do_not_depend_on_the_field_memo(budget, monkeypatch):
    # A 1-byte memo evicts every field at once, so each context rebuilds its
    # tables; a full-size one starts empty and fills as the cases run.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(field, "_MEMO", field._FieldMemo(budget))
    for expected in _load()["cases"]:
        case = expected["argv"], expected["patch"]
        got = transcript(*case)
        assert got == {key: expected[key] for key in got}, _case_id(case)


def _unquoted_check_value(self, action, value):
    # CPython 3.13.13's argparse: the invalid value quoted, the choices not.
    if action.choices is not None and value not in action.choices:
        raise argparse.ArgumentError(action, "invalid choice: %r (choose from %s)"
                                     % (value, ", ".join(map(str, action.choices))))


def test_invalid_choices_read_alike_under_other_argparse_wording(monkeypatch):
    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", _unquoted_check_value)
    stand_in = argparse.ArgumentParser(exit_on_error=False)
    stand_in.add_argument("--x", choices=("a", "b"))
    with pytest.raises(argparse.ArgumentError, match=r"\(choose from a, b\)$"):
        stand_in.parse_args(["--x", "c"])  # the patch is live
    replayed = [c for c in _load()["cases"]
                if c["argv"] in (["subsetsum", "--q", "5", "--domain", "nowhere"], ["bogus"])]
    assert len(replayed) == 2
    for golden in replayed:
        assert transcript(golden["argv"], None) == {
            key: golden[key] for key in ("rc", "stdout", "stderr", "written")}
    for argv, choices in [(["construct", "--order", "desc"], "'asc', 'gen'"),
                          (["weights", "--method", "desc"], "'formula', 'brute', 'both'"),
                          (["subsetsum", "--method", "desc"], "'lw', 'dp', 'both'")]:
        line = (f"egrl {argv[0]}: error: argument {argv[1]}: invalid choice: 'desc' "
                f"(choose from {choices})\n")
        assert transcript(argv, None) == {"rc": 2, "stdout": "", "stderr": line, "written": {}}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = [{"argv": argv, "patch": patch, **transcript(argv, patch)}
             for argv, patch in ALL_CASES]
    doc = {"cases": cases}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} transcripts to {GOLDEN}")

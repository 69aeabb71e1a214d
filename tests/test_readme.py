"""README's examples run as written: the library quick tour and every CLI line."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from egrl.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(lang: str, after: str) -> str:
    """The first fenced ``lang`` block below the heading ``after``."""
    section = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    scope: dict = {}
    exec(_block("python", "## Library quick tour"), scope)
    assert scope["check_mds"](scope["inst"]).is_mds is False
    assert scope["primal"].poly_str().startswith("1+224x^6+1520x^7+")
    assert scope["egrl_code"](scope["inst"]).weight_distribution() == scope["primal"]


def test_command_line_examples_exit_0():
    lines = [line for line in _block("sh", "## Command line").splitlines()
             if line.startswith("egrl ")]
    assert lines
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(shlex.split(line)[1:]) == 0, line

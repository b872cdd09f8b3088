"""``repro`` help, usage and argument-error text, byte for byte.

The CLI builds only the invoked verb's arguments, so every verb's
``--help`` and every usage error is compared against a snapshot in
``tests/cli_help/``, rendered at an 80-column terminal.  argparse's
layout changes between Python minor versions; the snapshots are
Python 3.11's, the version CI runs.

Regenerate (only when a help string changes on purpose)::

    PYTHONPATH=src python tests/test_cli_help.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

SNAPSHOTS = Path(__file__).resolve().parent / "cli_help"

VERBS = (
    "compare", "compile", "inspect", "stack", "decode", "sweep",
    "validate", "plan", "serve", "fleet", "learn", "cache", "figures",
)

CASES = (
    [],
    ["--help"],
    ["bogus"],
    *([verb, "--help"] for verb in VERBS),
    ["learn", "fit", "--help"],
    ["learn", "eval", "--help"],
    ["cache", "stats", "--help"],
    ["cache", "gc", "--help"],
    ["cache", "scrub", "--help"],
    ["plan", "--seq", "x"],
)

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="snapshots hold Python 3.11's argparse layout",
)


def snapshot_name(argv) -> str:
    return "_".join(["repro", *argv]) + ".txt"


def render(argv) -> str:
    """Exit code, stdout and stderr of ``repro <argv>``."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return (
        f"$ {' '.join(['repro', *argv])}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


@pytest.mark.parametrize("argv", CASES, ids=snapshot_name)
def test_help_and_usage_errors_match_snapshot(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (SNAPSHOTS / snapshot_name(argv)).read_text()
    assert render(argv) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    SNAPSHOTS.mkdir(exist_ok=True)
    for case in CASES:
        (SNAPSHOTS / snapshot_name(case)).write_text(render(case))

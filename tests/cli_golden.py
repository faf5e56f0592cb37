"""Golden corpus of the command line: stdout, stderr and exit code, byte for byte.

``cli_golden.json`` holds one record per invocation: its ``argv``, ``exit``
code, ``stdout`` and ``stderr``.  A record whose ``stderr_prefix`` is true
stores only the start of its stderr, for argparse messages whose wording
changes between Python versions.  ``test_cli_golden.py`` runs every record
under pytest.  This module needs only the standard library, so an
interpreter without pytest or numpy can check the corpus too:

    PYTHONPATH=src python tests/cli_golden.py [--skip COMMAND ...]

It prints each record that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_golden.json")


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def run(argv: list[str]) -> dict:
    """``main(argv)`` in-process: its exit code and what it printed on stdout and stderr."""
    from capacity_lab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code or 0, "stdout": out.getvalue(), "stderr": err.getvalue()}


def differences(record: dict) -> list[str]:
    """The fields in which running the record's argv departs from the record."""
    got = run(record["argv"])
    diffs = [name for name in ("exit", "stdout") if got[name] != record[name]]
    if record.get("stderr_prefix"):
        if not got["stderr"].startswith(record["stderr"]):
            diffs.append("stderr")
    elif got["stderr"] != record["stderr"]:
        diffs.append("stderr")
    return diffs


def _main() -> int:
    parser = argparse.ArgumentParser(description="Check the CLI against its golden corpus.")
    parser.add_argument("--skip", nargs="*", default=[], metavar="COMMAND", help="subcommands to leave out")
    args = parser.parse_args()
    records = [r for r in load() if not (r["argv"] and r["argv"][0] in args.skip)]
    failed = 0
    for record in records:
        if diffs := differences(record):
            failed += 1
            print(f"DIFFERS in {', '.join(diffs)}: {' '.join(record['argv'])}")
    print(f"{len(records) - failed} of {len(records)} records match under Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())

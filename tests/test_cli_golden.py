import pytest

import cli_golden
from capacity_lab.cli import _parser

RECORDS = cli_golden.load()


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) or "(no arguments)" for r in RECORDS])
def test_output_is_byte_identical(record):
    assert cli_golden.differences(record) == []


def _format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def test_corpus_covers_every_subcommand_in_every_format():
    _, commands = _parser()
    wanted = {
        (name, choice)
        for name, sub in commands.items()
        for action in sub._actions
        if action.dest == "fmt"
        for choice in action.choices
    }
    covered = {(r["argv"][0], _format(r["argv"])) for r in RECORDS if r["exit"] == 0}
    assert wanted <= covered

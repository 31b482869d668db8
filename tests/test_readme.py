"""README's ``fusemine`` commands parse, and every repository path it names exists."""

import re
import shlex
from pathlib import Path

import pytest

from fusemine import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BASH_BLOCKS = re.findall(r"```bash\n(.*?)```", README, re.S)
COMMANDS = [
    line.strip()
    for block in BASH_BLOCKS
    for line in block.replace("\\\n", " ").splitlines()
    if line.strip().startswith("fusemine ")
]
#: A path under a source directory, or a file of a kind the repository holds.
REPO_PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|scripts|perfbench)/[\w./-]*|[\w./-]+\.(?:py|md|toml)\b"
)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parses(command):
    without = re.sub(r"\s*\[[^\]]*\]", "", command)
    with_all = re.sub(r"\[([^\]]*)\]", r"\1", command)
    for line in (without, with_all):
        argv = shlex.split(line)[1:]
        assert cli.build_parser().parse_args(argv).command == argv[0]


def test_every_subcommand_is_shown():
    shown = {shlex.split(command)[1] for command in COMMANDS}
    assert shown == {"synth", "preprocess", "select", "train", "eval", "experiment", "explain"}


def test_named_repo_paths_exist():
    named = set(REPO_PATH.findall(README))
    assert "tests/test_acceptance.py" in named
    assert sorted(p for p in named if not (ROOT / p).exists()) == []

"""Every `cachecast ...` example in README.md runs and exits 0, and the
per-command flags table lists each command's flags."""

import re
import shlex
from pathlib import Path

import pytest

from cachecast.cli import _COMMANDS, _command_flags, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """argv (after `cachecast`) of every `cachecast` line in a bash block."""
    commands, in_block = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = line == "```bash"
        elif in_block and line.startswith("cachecast "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_has_usage_examples():
    assert len(COMMANDS) == 7
    assert {argv[0] for argv in COMMANDS} == {
        "gndt", "sweep-memory", "holes", "region", "verify", "finite-snr"
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:3]) for a in COMMANDS])
def test_readme_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 0, err
    assert "Traceback" not in err
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0


def test_flags_table_lists_each_commands_flags():
    """One row per command; its cell names exactly the flags the command
    takes besides --config and --out, each once."""
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", README.read_text(), re.MULTILINE)
    assert sorted(command for command, _ in rows) == sorted(_COMMANDS)
    for command, cell in rows:
        want = set(_command_flags(command)) - {"--config", "--out"}
        assert sorted(re.findall(r"--[\w-]+", cell)) == sorted(want), command

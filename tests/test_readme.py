"""Every code block of README.md runs as written: the Python quickstart as a script, and each `graphscan` line
of the shell block through the command line's entry point, in order, in a scratch directory."""
import re
import shlex
from pathlib import Path

import numpy as np

from graphscan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), flags=re.M | re.S)

# the input files the command lines read but do not write
SIGNAL = "\n".join(map(repr, np.random.default_rng(0).standard_normal(255).tolist())) + "\n"
CONFIG = "family = lattice\np = 4\nrho = 1.0\ndelta = 1.5\nreps_null = 100\nreps_alt = 100\n"


def command_lines(block: str) -> list[list[str]]:
    """The commands of a shell block, as argument lists: continuations joined, comments and blank lines dropped."""
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [argv for argv in lines if argv]


def blocks(language: str) -> list[str]:
    return [body for lang, body in BLOCKS if lang == language]


def test_every_block_is_run_here():
    assert sorted(lang for lang, _ in BLOCKS) == ["python", "sh"]
    assert all(argv[0] == "graphscan" for argv in command_lines(blocks("sh")[0]))


def test_quickstart_runs(capsys):
    (code,) = blocks("python")
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.split()[0] in ("True", "False")


def test_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "y.csv").write_text(SIGNAL)
    (tmp_path / "my.cfg").write_text(CONFIG)
    (block,) = blocks("sh")
    for argv in command_lines(block):
        assert main(argv[1:]) == 0, shlex.join(argv)
    assert (tmp_path / "results" / "roc_sss.csv").exists()


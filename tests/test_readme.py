"""The README's examples run: its python blocks, and its `wickbench check` command."""

import re
import shlex
from pathlib import Path

from wickbench.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_python_blocks_run():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_check_example_exits_zero(capsys):
    (command,) = re.findall(r"^wickbench check (.*?'.*?')$", README, re.M | re.S)
    assert main(["check", *shlex.split(command)]) == 0
    assert '"pass":true' in capsys.readouterr().out

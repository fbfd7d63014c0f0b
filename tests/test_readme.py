"""The README's python examples and CLI lines run against the current
package, and the constants it cites hold the values it gives."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from gammalattice.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# the argv of every `gammalattice ...` line of the `sh` blocks
COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("gammalattice ")
]
# "`module.NAME` = value", the value as 1000, 100,000, 10^7 or 4 x 10^7
CITED = re.findall(
    r"`(\w+)\.([A-Z_]+)`\s*=\s*((?:[\d,]+ x )?10\^\d+|[\d,]+)", TEXT
)


def _value(text):
    text = text.replace(",", "")
    if "10^" not in text:
        return int(text)
    factor, power = text.split("10^")
    return int(factor.rstrip(" x") or 1) * 10 ** int(power)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize(
    "source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))]
)
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert {argv[0] for argv in COMMANDS} == {"coeffs", "matrix", "verify", "density"}


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"cli{i}" for i in range(len(COMMANDS))]
)
def test_readme_cli_line_runs(capsys, argv):
    assert main(argv) == 0


def test_readme_cites_constants():
    assert len(CITED) >= 4


@pytest.mark.parametrize(
    "module, name, text", CITED, ids=[f"{m}.{n}" for m, n, _ in CITED]
)
def test_cited_constant_holds(module, name, text):
    value = getattr(importlib.import_module(f"gammalattice.{module}"), name)
    assert value == _value(text)

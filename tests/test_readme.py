"""The README's library tour and CLI pipes run as written against the package."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import SRC, run_cli

README = Path(__file__).parents[1] / "README.md"

# each stdin pipe of the CLI section, with a text its last stage prints
PIPES = {
    "zeroforcing gen heawood | zeroforcing bounds": "verdict: M=6",
    "zeroforcing gen family --order 4 | zeroforcing recognize":
        "  member  spec=apex(T0)\n",
    "zeroforcing gen necklace 3 | zeroforcing spantree --root 0": "",
    "zeroforcing gen prism 5 sigma=1,2 | zeroforcing zf": "",
}


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_cli_section_lists_the_pipes():
    block = re.search(r"## CLI.*?```sh\n(.*?)```", README.read_text(), re.DOTALL)
    pipes = [line.split("#")[0].strip() for line in block[1].splitlines()
             if " | " in line]
    assert pipes == list(PIPES)


@pytest.mark.parametrize("pipe", list(PIPES), ids=lambda pipe: pipe.split()[2])
def test_cli_pipe_runs(pipe):
    out = ""
    for stage in pipe.split(" | "):
        code, out, err = run_cli(shlex.split(stage)[1:], stdin=out)
        assert code == 0, (stage, err)
    assert PIPES[pipe] in out


def test_numpy_is_the_only_runtime_dependency():
    # the install line names numpy alone, so a fresh interpreter that imports
    # the package and its CLI loads none of the test and oracle libraries
    test_only = ("networkx", "sympy", "hypothesis", "scipy", "pytest")
    code = ("import sys, zeroforcing, zeroforcing.cli; "
            f"print(*[m for m in {test_only!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"

"""The README's library tour runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})

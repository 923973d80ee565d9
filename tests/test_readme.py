"""The README's library tour runs as written.

Its ```python blocks are executed in order, in one namespace and in this
process, so a signature change that breaks a documented example fails
here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)

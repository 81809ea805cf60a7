"""The README's ```python blocks run in order, in one namespace, so an
example that names a removed or renamed API fails the suite."""

import re

from .conftest import REPO_ROOT

BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = BLOCK.findall((REPO_ROOT / "README.md").read_text())
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)

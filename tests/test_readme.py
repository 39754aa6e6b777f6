"""The README's examples run against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().partition("\n## Library\n")[2].partition("\n## ")[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the README's Library section has no python block"
    exec(compile(block.group(1), f"{README.name}, ## Library", "exec"), {})

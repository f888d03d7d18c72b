"""The README's Python examples, run in order in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.S | re.M)


def test_readme_python_blocks_run():
    assert len(BLOCKS) >= 3
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
        # a "# -> text" line states the verdict of the expression on the line above it
        lines = block.splitlines()
        for above, line in zip(lines, lines[1:]):
            if line.startswith("# -> "):
                assert eval(above, namespace).describe() == line[len("# -> "):]

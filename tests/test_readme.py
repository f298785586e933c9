"""README.md's code runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    """The ``python`` block under "Library quick start" runs to its end."""
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README.name}: Library quick start", "exec"), namespace)
    assert 0.0 < namespace["lo"] < namespace["hi"] < 1.0
    assert namespace["stats"].c1_fraction > 0.9

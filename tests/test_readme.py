"""The library example in README.md runs as written against src/, so the
documented API cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    final_t, sup_u = capsys.readouterr().out.split()
    assert float(final_t) == 1.0 and float(sup_u) < 1.0

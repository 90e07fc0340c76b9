"""The README's library tour runs and prints what its comments show."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_the_tour_prints_what_its_comments_show():
    # each `print(...)  # value` line: the value in full, or up to "..."
    code = _tour()
    shown = [line.split("#", 1)[1].strip() for line in code.splitlines()
             if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(shown) > 0
    for got, want in zip(printed, shown):
        head, elided, _ = want.partition("...")
        if elided:
            assert got.startswith(head), (got, want)
        else:
            assert got == want

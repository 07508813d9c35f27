"""The README's library example runs as written against the current API."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks() -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_library_example_prints_what_it_shows():
    # a print call's trailing comment shows the line that it prints
    blocks = python_blocks()
    assert blocks
    for block in blocks:
        shown = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, README, "exec"), {})
        assert shown and out.getvalue().splitlines() == shown

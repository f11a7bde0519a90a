"""The README quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_the_values_in_its_comments():
    code = quick_start()
    # each print line's comment opens with the value it prints
    expected = [
        float(re.match(r"#\s*(\S+)", line.split(")", 1)[1].strip()).group(1))
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = [float(x) for x in out.getvalue().split()]
    assert len(printed) == len(expected) == 4
    for got, want in zip(printed, expected):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

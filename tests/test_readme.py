"""The README's Python example, run as written.

Each line with a comment is an expression whose value the comment shows; it
is checked by value, a pair through ``.raw()``, since the printed order of a
frozenset's members follows the hash seed.
"""

import pathlib
import re

from aft.approx import ApproxPair

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_gives_its_commented_results():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, shown = line.partition("#")
        if not shown:
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        if isinstance(got, ApproxPair):
            got = got.raw()
        assert got == eval(shown, {}), line
        checked += 1
    assert checked == 2

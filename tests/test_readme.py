"""The README's examples, run as written.

In the Python example, each line with a comment is an expression whose value
the comment shows; it is checked by value, a pair through ``.raw()``, since
the printed order of a frozenset's members follows the hash seed. Each
``$ aft ...`` line of the command-line examples runs in process on the
file it names, and prints the lines shown under it; of the abbreviated JSON
line, the keys it shows.
"""

import json
import pathlib
import re
import shlex

from aft.approx import ApproxPair
from aft.cli import main
from conftest import ABC_ADF, SEPARATOR, TWO_CYCLE

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

EXAMPLE_FILES = {"two-cycle.lp": TWO_CYCLE, "abc.adf": ABC_ADF, "separator.lp": SEPARATOR}


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


def test_shell_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1].split("\n## ")[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    for name, text in EXAMPLE_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    examples = [chunk.splitlines() for chunk in block.strip().split("\n\n")]
    for command, *shown in examples:
        program, *argv = shlex.split(command.removeprefix("$ "))
        assert program == "aft", command
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        if shown[0].startswith("{"):
            keys = json.loads(shown[0].replace(" ...,", ""))
            doc = json.loads(out)
            assert {k: doc[k] for k in keys} == keys, command
        else:
            assert out.splitlines() == shown, command
    assert len(examples) == 4

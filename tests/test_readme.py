"""The README's examples, run as written: their printed values must hold."""

import contextlib
import io
import json
import pathlib
import re

from bondlat.cli import main
from bondlat.jsonio import dumps

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(after: str, language: str) -> str:
    """The first fenced `language` block that follows the line `after`."""
    start = README.index(after)
    return re.search(rf"^```{language}\n(.*?)^```$", README[start:], re.S | re.M).group(1)


def test_library_quick_start_prints_its_comments():
    code = fenced_block("## Library quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, value in zip(prints, printed):
        if "#" in line:
            assert value == line.split("#", 1)[1].strip()
    assert printed[0] == "3"


def test_lattice_example_is_the_cli_output(tmp_path):
    block = fenced_block("Example:", "sh")
    command, document = block.split("\n", 1)
    assert command == "$ bondlat lattice --input tri.json"
    ids = ("a1", "a2", "a3")
    tri = {
        "vertices": [1, 2, 3],
        "arcs": [{"id": "a1", "tail": 1, "head": 2}, {"id": "a2", "tail": 2, "head": 3}, {"id": "a3", "tail": 3, "head": 1}],
        "lower": dict.fromkeys(ids, 0),
        "upper": dict.fromkeys(ids, 1),
        "reference": {"a1": 1, "a2": 0, "a3": 0},
        "forbidden": 1,
    }
    source, sink = tmp_path / "tri.json", tmp_path / "out.json"
    source.write_text(dumps(tri), encoding="utf-8")
    assert main(["lattice", "--input", str(source), "--output", str(sink)]) == 0
    assert json.loads(sink.read_text(encoding="utf-8")) == json.loads(document)

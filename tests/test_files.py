"""Every artifact is written through `enspost.files`, whose writers replace
a file only once it is whole."""

import ast
import json
from pathlib import Path

import pytest

import enspost
from enspost import files

SRC = Path(enspost.__file__).resolve().parent


def writes(tree):
    """(line, name) of every file write in `tree` that bypasses `files`: a
    .write_text or .write_bytes method call on anything but the `files`
    module, and an open or .open call with a write mode, or a mode that is
    not a literal."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute) \
                and not (isinstance(func.value, ast.Name) and func.value.id == "files"):
            yield node.lineno, name
        elif name == "open":
            # builtin open(path, mode) or Path.open(mode)
            modes = (node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]) \
                + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
                   for mode in modes):
                yield node.lineno, name


def test_only_files_writes():
    found = {path.name: list(writes(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py")) if path.name != "files.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_scan_sees_every_kind_of_write():
    code = ("Path(p).write_text(t)\nq.write_bytes(b)\nopen(p, 'w')\nopen(p, mode='a')\n"
            "Path(p).open('wb')\nopen(p, m)\nfiles.write_text(p, t)\nwrite_json(p, v)\n"
            "open(p)\nopen(p, newline='')\nPath(p).open()\nopen(p, 'r')\n")
    assert list(writes(ast.parse(code))) == [
        (1, "write_text"), (2, "write_bytes"), (3, "open"), (4, "open"), (5, "open"),
        (6, "open")]


def test_text_and_json_keep_their_bytes(tmp_path):
    """write_text writes LF line ends as given; write_json is one line of
    compact JSON with sorted keys."""
    files.write_text(tmp_path / "ens.csv", "seed\n11\n")
    assert (tmp_path / "ens.csv").read_bytes() == b"seed\n11\n"
    files.write_json(tmp_path / "a.json", {"n": 2, "acceptance": 0.25})
    assert (tmp_path / "a.json").read_bytes() == b'{"acceptance":0.25,"n":2}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "ens.csv"]


def test_a_failed_write_keeps_the_previous_file(tmp_path):
    """Text that cannot be encoded, or an error while the rows are drawn,
    leaves the previous file as it was and no temporary file."""
    path = tmp_path / "health.json"
    files.write_json(path, {"n": 1})

    def rows():
        yield ["1"]
        raise ValueError("bad row")

    with pytest.raises(UnicodeEncodeError):
        files.write_text(path, '{"n": "\ud800"}\n')
    with pytest.raises(ValueError, match="bad row"):
        files.write_rows(path, ["n"], rows())
    assert json.loads(path.read_text()) == {"n": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["health.json"]

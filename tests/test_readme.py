"""The README's library quick start and ``u3plus nf`` lines run as
written."""

import re
import shlex
from pathlib import Path

import pytest

from u3plus import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                          re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True"
    assert lines[2] == str([
        "a0*a0*a0*a0", "b0*a0*a0*a0", "b0*b0*a0*a0", "b0*b0*b0*a0",
        "b0*b0*b0*b0", "b0*a0*b0*a0*b0*a0*a0", "b0*b0*a0*b0*a0*b0*a0",
        "b0*a0*b0*a0*b0*a0*b0*a0"])
    assert lines[3] == "True"
    assert lines[4].startswith("{1: ")


# `u3plus nf ... "expr"   # -> result` or `# error: ... text`
_NF_LINES = re.findall(r"^u3plus (nf .*?)\s+# (-> |error: )(.*)$",
                       README.read_text("utf-8"), re.M)


def test_readme_has_nf_lines():
    assert len(_NF_LINES) >= 7


@pytest.mark.parametrize("command,kind,expected", _NF_LINES)
def test_nf_line_prints_its_result(capsys, command, kind, expected):
    code = cli.main(shlex.split(command))
    out, err = capsys.readouterr()
    if kind == "-> ":
        assert (code, out, err) == (0, expected + "\n", "")
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        for part in expected.split("..."):
            assert part.strip() in err

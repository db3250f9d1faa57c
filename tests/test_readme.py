"""The README's Python API example runs as written, and the package's
public names resolve."""

import math
import re
from pathlib import Path

import vemlab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_prints_two_finite_errors(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(),
                          flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out
    match = re.fullmatch(r"relative errors: L2 (\S+), H1 (\S+)\n", printed)
    assert match, printed
    errors = [float(e) for e in match.groups()]
    assert all(math.isfinite(e) and 0 < e < 1 for e in errors)


def test_every_public_name_resolves_once():
    assert len(set(vemlab.__all__)) == len(vemlab.__all__)
    for name in vemlab.__all__:
        assert hasattr(vemlab, name), name

"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    mean, std = (float(v) for v in capsys.readouterr().out.strip("()\n").split(","))
    assert mean >= 0 and std >= 0

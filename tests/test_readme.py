"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    # the identity pair draws the bi-Lipschitz warning of criterion 7
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        exec(compile(blocks[0], str(README), "exec"), {})
    m, r, epsilon = capsys.readouterr().out.split()
    assert int(m) == 2 and float(r) > 2 * float(epsilon) > 0

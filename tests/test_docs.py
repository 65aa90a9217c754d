"""The README's library example and the demos run as written."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qpbw

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _python_blocks(text):
    """The bodies of the ```python fences of a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_library_example():
    blocks = [b for b in _python_blocks((ROOT / "README.md").read_text())
              if b.lstrip().startswith(">>>")]
    assert blocks, "README has no ```python doctest block"
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README block {i}", "README.md",
                                  0)
        assert test.examples
        runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, result


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(qpbw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout

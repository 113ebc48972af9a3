"""Each walkthrough in demos/ runs to completion against the package, and
every `python` example in README.md gives the output it shows."""

import doctest
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout


def test_readme_python_examples_pass_doctest():
    # the blocks share one namespace, as for a reader typing them in order
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    parser, runner, report = doctest.DocTestParser(), doctest.DocTestRunner(), io.StringIO()
    namespace, failed, attempted = {}, 0, 0
    for number, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, namespace, f"README block {number}", "README.md", 0)
        result = runner.run(test, out=report.write, clear_globs=False)
        namespace = test.globs
        failed, attempted = failed + result.failed, attempted + result.attempted
    assert failed == 0, report.getvalue()
    assert attempted >= 18

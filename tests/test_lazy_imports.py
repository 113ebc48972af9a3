"""Layers load on first use: the package re-exports lazily, the CLI per job.

The import-boundary tests run each command in a fresh interpreter, because
this test process has already imported every layer. The probe also reports
`dataclasses` and `inspect`, which no job needs: importing them costs more
start-up time than most jobs spend computing.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pellsum

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
import pellsum.cli
try:
    code = pellsum.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(
    m for m in sys.modules if m.startswith("pellsum.") or m in ("dataclasses", "inspect")
)]))
"""


def loaded_layers(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    code, modules = json.loads(run.stdout.splitlines()[-1])
    assert code == 0, (argv, code)
    return {name.removeprefix("pellsum.") for name in modules}


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["pell", "--d=13"],
        ["solve-norm", "--d=13", "--m=4"],
        ["coords", "--d=13", "--m=4", "--coord=1", "--bound=2000000"],
    ],
)
def test_pell_layer_jobs_load_no_search_layer(argv):
    loaded = loaded_layers(argv)
    assert loaded & {"search", "sunits", "recurrences", "fixtures", "partitions"} == set()
    assert "cli" in loaded


@pytest.mark.parametrize("argv", [["recur", "--rec=1,1;0,1", "--n=30"], ["binet", "--rec=1,1;0,1"]])
def test_recurrence_jobs_load_no_search_layer(argv):
    loaded = loaded_layers(argv)
    assert loaded & {"search", "sunits", "fixtures"} == set()
    assert "recurrences" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["pell", "--d=13"],
        ["solve-norm", "--d=13", "--m=4"],
        ["coords", "--d=13", "--m=4", "--coord=1", "--bound=1000"],
        ["recur", "--rec=1,1;0,1", "--n=30"],
        ["binet", "--rec=1,1;0,1"],
        ["hypotheses", "--rec=1,1;0,1", "--exp-bound=3"],
        ["pairs-search", "--rec=1,1;0,1", "--d=13", "--m=4", "--n=20", "--bound=1000"],
        ["sunit-search", "--primes=2,3", "--t=2", "--exp-bound=1", "--d=13", "--m=4",
         "--bound=100"],
        ["vanishing", "--rec=2,-2;1,1", "--n=10"],
        ["bound", "--s=2", "--degrees=2", "--field-degree=2"],
        ["partitions", "--bases=2,4,3+2*sqrt(2)", "--exp-bound=3"],
        ["verify-remark", "--id=2.3", "--n=50"],
    ],
)
def test_no_job_imports_dataclasses_or_inspect(argv):
    assert loaded_layers(argv) & {"dataclasses", "inspect"} == set()


def test_importing_the_package_loads_no_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, pellsum\n"
        "print([m for m in sys.modules if m.startswith('pellsum.')])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert run.stdout.strip() == "[]"


def test_every_public_name_is_its_defining_modules_object():
    for name in pellsum.__all__:
        value = getattr(pellsum, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
    assert set(pellsum.__all__) <= set(dir(pellsum))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pellsum import *", namespace)
    assert set(pellsum.__all__) <= namespace.keys()
    assert namespace["pell_data"](13).fundamental == (649, 180)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pellsum.no_such_name
    assert not hasattr(pellsum, "solutions_within")
    with pytest.raises(ImportError):
        from pellsum import solutions_within  # noqa: F401

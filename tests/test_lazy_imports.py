"""Layers load on first use: the package re-exports lazily, the CLI per job.

Each subcommand loads exactly the pellsum modules it runs: the CLI core and
the module holding its handler, with what that module's kernels import.

The import-boundary tests run each command in a fresh interpreter, because
this test process has already imported every layer. The probe also reports
`dataclasses` and `inspect`, which no job needs, `importlib.resources` and
`zipfile`, which `verify-remark` does not need to read its fixtures, and
`json`, which only `verify-remark` needs: importing them costs more start-up
time than most jobs spend computing.
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
import sys
import pellsum.cli
try:
    code = pellsum.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(
    m for m in sys.modules
    if m.startswith("pellsum.")
    or m in ("dataclasses", "inspect", "importlib.resources", "zipfile", "json")
)
import json
print(json.dumps([code, loaded]))
"""


def loaded_layers(argv, *flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE, *argv],
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


# --version and one job of every subcommand
EVERY_COMMAND = [
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
]


# The pellsum modules every job loads: cli binds the Pell layer at module
# level, where perfbench/trace_child.py finds and wraps it
CORE = {"_records", "cli", "errors", "normform", "pell", "quadfield"}
# what each subcommand loads beyond the core: its handler's module and what
# that module and the kernels it runs import
LAYERS_OF = {
    "--version": set(),
    "pell": set(),
    "solve-norm": set(),
    "coords": set(),
    "recur": {"recurrences"},
    "binet": {"recurrences"},
    "hypotheses": {"recurrences"},
    "pairs-search": {"recurrences", "search"},
    "sunit-search": {"search", "sunits"},
    "vanishing": {"recurrences", "search"},
    "bound": {"search"},
    "partitions": {"partitions", "recurrences"},
    "verify-remark": {"fixtures", "recurrences", "search"},
}
NOT_LAYERS = {"dataclasses", "inspect", "importlib.resources", "zipfile", "json"}


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_each_job_loads_exactly_its_layers(argv):
    assert loaded_layers(argv) - NOT_LAYERS == CORE | LAYERS_OF[argv[0]]


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_no_job_imports_dataclasses_or_inspect(argv):
    assert loaded_layers(argv) & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_only_verify_remark_imports_json(argv):
    # the CLI writes its documents itself; fixtures.py parses its JSON records.
    # -S: a site .pth file may import json before any job starts
    structured = argv if argv == ["--version"] else [*argv, "--format=structured"]
    loaded = loaded_layers(structured, "-S")
    assert ("json" in loaded) == (argv[0] == "verify-remark")


def test_verify_remark_reads_fixtures_without_importlib_resources():
    # -S: a site .pth file may import these modules before any job starts
    loaded = loaded_layers(["verify-remark", "--id=2.3", "--n=50"], "-S")
    assert "fixtures" in loaded
    assert loaded & {"importlib.resources", "zipfile"} == set()


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


def test_every_error_class_is_public():
    from pellsum import errors

    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.PellsumError)
    }
    assert classes - set(pellsum.__all__) == set()


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pellsum import *", namespace)
    assert set(pellsum.__all__) <= namespace.keys()
    assert namespace["pell_data"](13).fundamental == (649, 180)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pellsum.no_such_name
    # names that moved out of the package or were deleted
    for name in ("solutions_within", "unit_power_form", "UnitPowerForm", "sunit_from_rational"):
        assert not hasattr(pellsum, name)
        with pytest.raises(ImportError):
            exec(f"from pellsum import {name}", {})

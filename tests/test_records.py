"""The frozen records keep the constructors, reprs, equality, hashes and
errors they had as @dataclass(frozen=True) classes; the expected values
were taken from the dataclass versions."""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pellsum.normform import NormFormProblem, solution_classes
from pellsum.pell import PellData, pell_data
from pellsum.quadfield import QuadNum, quad
from pellsum.recurrences import DependenceVerdict, LinearRecurrence
from pellsum.search import PairHit
from pellsum.sunits import SPrimeSet, SUnit

ROOT = Path(__file__).resolve().parent.parent


def records():
    return [
        quad(3, 2, 2),
        pell_data(13),
        NormFormProblem(13, 4),
        solution_classes(NormFormProblem(13, 4)),
        PairHit(1, 2, 3, ((1, (3, 1)),)),
        SPrimeSet((2, 3)),
        SUnit(-1, (1, -2), SPrimeSet((2, 3))),
        LinearRecurrence((1, 1), (0, 1)),
        DependenceVerdict(False, None, 10),
    ]


def test_repr_is_the_dataclass_form():
    assert repr(quad(3, 2, 2)) == "QuadNum(x=Fraction(3, 1), y=Fraction(2, 1), d=2)"
    assert repr(QuadNum(Fraction(1, 2), -3, -7)) == (
        "QuadNum(x=Fraction(1, 2), y=Fraction(-3, 1), d=-7)"
    )
    assert repr(pell_data(13)) == (
        "PellData(d=13, fundamental=(649, 180), negative=(18, 5),"
        " automorph=(11, 3), period=(1, 1, 1, 1, 6))"
    )
    assert repr(NormFormProblem(13, 4)) == "NormFormProblem(d=13, m=4)"
    assert repr(PairHit(1, 2, 3, ((1, (3, 1)),))) == (
        "PairHit(n1=1, n2=2, value=3, memberships=((1, (3, 1)),))"
    )


def test_equality_is_per_class_and_hash_follows_it():
    for a, b in zip(records(), records()):
        assert a == b and hash(a) == hash(b)
    assert hash(quad(3, 2, 2)) == hash((Fraction(3), Fraction(2), 2))
    assert hash(NormFormProblem(13, 4)) == hash((13, 4))
    assert hash(SPrimeSet((2, 3))) == hash(((2, 3),))
    assert NormFormProblem(13, 4) != NormFormProblem(13, -4)
    assert quad(3, 2, 2) != quad(3, 2, 3)
    assert NormFormProblem(13, 4) != (13, 4)
    assert quad(3, 2, 2) != (Fraction(3), Fraction(2), 2)
    assert SPrimeSet((2, 3)) != ((2, 3),)
    assert NormFormProblem(13, 4).__eq__((13, 4)) is NotImplemented
    assert quad(3, 2, 2).__eq__(NormFormProblem(13, 4)) is NotImplemented
    assert len(SPrimeSet((2, 3, 5))) == 3


def test_fields_cannot_be_assigned_or_deleted():
    for rec in records():
        for name in (rec.__match_args__[0], "not_a_field"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(rec, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(rec, name)
    assert QuadNum.__match_args__ == ("x", "y", "d")
    assert PellData.__match_args__ == (
        "d", "fundamental", "negative", "automorph", "period"
    )


def test_keyword_construction_and_copies():
    assert NormFormProblem(m=4, d=13) == NormFormProblem(13, 4)
    assert QuadNum(d=2, y=2, x=3) == quad(3, 2, 2)
    assert SPrimeSet(primes=[2, 3]).primes == (2, 3)
    assert LinearRecurrence((1, 1), initials=[0, 1]).initials == (0, 1)
    for rec in records():
        assert copy.copy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize(
    "build, kind, message",
    [
        (lambda: NormFormProblem(13, 0), ValueError, "m must be a nonzero integer, got 0"),
        (lambda: QuadNum("x", 0, 4), ValueError, "Invalid literal for Fraction: 'x'"),
        (lambda: QuadNum(1, 2, 4), ValueError, "d must be squarefree, got 4"),
        (lambda: LinearRecurrence((0,), (1,)), ValueError, "last coefficient must be nonzero"),
        (lambda: SUnit(2, (1,), SPrimeSet((2,))), ValueError, "sign must be +1 or -1"),
        (lambda: SPrimeSet((2, 2)), ValueError, "primes must be strictly increasing"),
        (lambda: NormFormProblem(13), TypeError,
         "NormFormProblem.__init__() missing 1 required positional argument: 'm'"),
        (lambda: NormFormProblem(), TypeError,
         "NormFormProblem.__init__() missing 2 required positional arguments: 'd' and 'm'"),
        (lambda: QuadNum(), TypeError,
         "QuadNum.__init__() missing 3 required positional arguments: 'x', 'y', and 'd'"),
        (lambda: NormFormProblem(13, 4, 5), TypeError,
         "NormFormProblem.__init__() takes 3 positional arguments but 4 were given"),
        (lambda: QuadNum(1, 2, 3, 4), TypeError,
         "QuadNum.__init__() takes 4 positional arguments but 5 were given"),
        (lambda: NormFormProblem(13, d=4), TypeError,
         "NormFormProblem.__init__() got multiple values for argument 'd'"),
        (lambda: NormFormProblem(13, 4, z=1), TypeError,
         "NormFormProblem.__init__() got an unexpected keyword argument 'z'"),
        (lambda: SPrimeSet(), TypeError,
         "SPrimeSet.__init__() missing 1 required positional argument: 'primes'"),
        (lambda: SUnit(), TypeError,
         "SUnit.__init__() missing 3 required positional arguments:"
         " 'sign', 'exponents', and 'basis'"),
        (lambda: NormFormProblem(13, 4, self=1), TypeError,
         "NormFormProblem.__init__() got multiple values for argument 'self'"),
        (lambda: SPrimeSet((2,), primes=(3,)), TypeError,
         "SPrimeSet.__init__() got multiple values for argument 'primes'"),
        (lambda: SUnit(1, (1,), SPrimeSet((2,)), 4, z=1), TypeError,
         "SUnit.__init__() got an unexpected keyword argument 'z'"),
    ],
)
def test_construction_errors_are_unchanged(build, kind, message):
    with pytest.raises(kind) as caught:
        build()
    assert str(caught.value) == message


def test_constructors_are_plain_functions_over_the_fields():
    for rec in records():
        cls = type(rec)
        params = list(inspect.signature(cls).parameters)
        assert params == list(cls.__match_args__), cls
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__


def _traced(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stderr.split("\x1eperfbench-trace ")[-1])


def test_the_tracer_still_wraps_the_record_methods():
    # counts taken from the dataclass version of QuadNum
    expected = {
        ("binet", "--rec=1,1;0,1", "--format=structured"): (158, 116),
        ("solve-norm", "--d=13", "--m=4", "--format=structured"): (0, 0),
    }
    for argv, (new_calls, mul_calls) in expected.items():
        trace = _traced(argv)
        assert trace["unwrapped"] == [], argv
        counts = trace["counts"]
        assert counts.get("quadfield.QuadNum.__post_init__.calls", 0) == new_calls, argv
        assert counts.get("quadfield.QuadNum.__mul__.calls", 0) == mul_calls, argv

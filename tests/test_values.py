"""The value types, one row each: the repr they print, equality and
hash, immutability, copy and pickle, and every validation message,
with the refusals of crt_solve and ClosureSet.sample; and an import of
the command line that loads no dataclass machinery."""

import copy
import importlib
import os
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import kirch
from kirch.filters import FilterDescriptor, FiniteSubset, OrderWitness, descriptor
from kirch.graphs import GammaGraph, build_gamma
from kirch.numtheory import _Frozen, _Value, classify_prime, crt_solve
from kirch.topology import ClosureSet, Progression, closure
from kirch.verify import SuiteConfig, SuiteReport, VerifyFailure

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_FAILURE = VerifyFailure("x=1", "2", "3")

# (a maker called twice, a maker of an unequal value, the repr), for
# the types that compare by value
BY_VALUE = [
    pytest.param(lambda: classify_prime(3), lambda: classify_prime(5),
                 "PrimeClass(is_fermat=True, is_mersenne=True, m=1)", id="PrimeClass"),
    pytest.param(lambda: FiniteSubset.of(10, 5, 10), lambda: FiniteSubset.of(5),
                 "FiniteSubset(elements=(5, 10))", id="FiniteSubset"),
    pytest.param(lambda: OrderWitness(7, 1, "A(F) reaches outside A(E)"),
                 lambda: OrderWitness(7, 2, "A(F) reaches outside A(E)"),
                 "OrderWitness(prime=7, element=1, reason='A(F) reaches outside A(E)')",
                 id="OrderWitness"),
    pytest.param(lambda: Progression(8, 3), lambda: Progression(8, 5),
                 "Progression(a=-1, b=3)", id="Progression"),
    pytest.param(lambda: closure(Progression(1, 15)), lambda: closure(Progression(2, 15)),
                 "ClosureSet(modulus_primes=(3, 5), allowed_residue=1)", id="ClosureSet"),
    pytest.param(lambda: SuiteConfig(), lambda: SuiteConfig(seed=8),
                 "SuiteConfig(max_element=None, graph_bounds=(9, 5), seed=7)", id="SuiteConfig"),
    pytest.param(lambda: VerifyFailure("x=1", "2", "3"), lambda: VerifyFailure("x=1", "2", "4"),
                 "VerifyFailure(inputs='x=1', expected='2', actual='3')", id="VerifyFailure"),
    pytest.param(lambda: SuiteReport("top", 3, (_FAILURE,), {"a": 1}),
                 lambda: SuiteReport("top", 3, (), {"a": 1}),
                 "SuiteReport(suite='top', cases=3, failures=(VerifyFailure(inputs='x=1', "
                 "expected='2', actual='3'),), details={'a': 1})", id="SuiteReport"),
]

# (a maker, the repr), for the types that compare by identity
BY_IDENTITY = [
    pytest.param(lambda: descriptor(FiniteSubset.of(5, 10)),
                 "FilterDescriptor(Pi=(5,), alpha={2: 1, 5: 0}, "
                 "source=FiniteSubset(elements=(5, 10)))", id="FilterDescriptor"),
    # one edge, so that no set order is pinned
    pytest.param(lambda: build_gamma(2, (0, 0)),
                 "GammaGraph(p=2, bounds=(0, 0), vertices=(-1, 1), "
                 "predicate=frozenset({1}), closed=frozenset({1}))", id="GammaGraph"),
]


def _records(base):
    """Every class below base, at any depth, that names its fields, in
    every kirch module but __main__, which would run the CLI."""
    for m in pkgutil.iter_modules(kirch.__path__):
        if m.name != "__main__":
            importlib.import_module(f"kirch.{m.name}")
    below = base.__subclasses__()
    return {c for c in below if c.__slots__} | {r for c in below for r in _records(c)}


def test_the_tables_cover_every_value_type():
    # every record derives from _Frozen, so a new one shows up here
    by_value = {type(p.values[0]()) for p in BY_VALUE}
    by_identity = {type(p.values[0]()) for p in BY_IDENTITY}
    assert by_value | by_identity == _records(_Frozen)
    assert by_value == _records(_Value)


@pytest.mark.parametrize("make,other,text", BY_VALUE)
def test_value_types_print_and_compare_by_value(make, other, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a is not b and a == b and not a != b
    assert a != other() and not a == other()
    if isinstance(a, SuiteReport):
        # its details are a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("make,text", BY_IDENTITY)
def test_identity_types_print_and_compare_by_identity(make, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == a and a != b
    assert len({a, b}) == 2


@pytest.mark.parametrize("value,fields", [
    (FiniteSubset.of(1, 2), ((1, 2),)),
    (Progression(1, 3), (1, 3)),
    (ClosureSet((3,), 1), ((3,), 1)),
    (classify_prime(3), (True, True, 1)),
    (OrderWitness(7, 1, "r"), (7, 1, "r")),
    (_FAILURE, ("x=1", "2", "3")),
    (SuiteReport("top", 3, (), {}), ("top", 3, (), {})),
], ids=["FiniteSubset", "Progression", "ClosureSet", "PrimeClass", "OrderWitness",
        "VerifyFailure", "SuiteReport"])
def test_slotted_values_equal_only_their_own_class(value, fields):
    assert value != fields and fields != value
    assert value != fields[0]


# (a maker, the repr), for every record type
EVERY_RECORD = [pytest.param(p.values[0], p.values[-1], id=p.id) for p in BY_VALUE + BY_IDENTITY]


@pytest.mark.parametrize("make,text", EVERY_RECORD)
def test_fields_cannot_be_assigned(make, text):
    value = make()
    name = text[text.index("(") + 1:text.index("=")]  # the first field the repr shows
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("make,text", EVERY_RECORD)
def test_records_copy_and_pickle(make, text):
    # the default reduce would restore the fields through __setattr__
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and repr(twin) == text
        if isinstance(value, _Value):
            assert twin == value


@pytest.mark.parametrize("make,error,message", [
    (lambda: crt_solve(((1, 2), (0, 0))), ValueError, "modulus 0 must be >= 1"),
    (lambda: crt_solve(((1, 4), (0, 6))), ValueError, "moduli 4 and 6 are not coprime"),
    (lambda: crt_solve(((1, 2), (1, 3), (0, 4))), ValueError,
     "moduli 2 and 4 are not coprime"),
    (lambda: FiniteSubset(()), ValueError, "the empty set carries no filter"),
    (lambda: FiniteSubset.of(3, 0), ValueError, "0 is not a point of the space"),
    (lambda: FiniteSubset.of(1, -2**63), OverflowError,
     "|-9223372036854775808| exceeds the supported 63-bit range"),
    # both ends out of range: the low one is named; an id of its own keeps
    # the row above from sharing its generated one
    pytest.param(lambda: FiniteSubset.of(-2**63, 2**63), OverflowError,
                 "|-9223372036854775808| exceeds the supported 63-bit range", id="both-ends"),
    (lambda: Progression(2**63, 3), OverflowError,
     "|9223372036854775808| exceeds the supported 63-bit range"),
    (lambda: Progression(1, 2**63), OverflowError,
     "|9223372036854775808| exceeds the supported 63-bit range"),
    (lambda: Progression(1, 0), ValueError, "modulus 0 must be positive"),
    (lambda: closure(Progression(1, 3)).sample(0), ValueError,
     "window bound 0 must lie in [1, 1000000]"),
    (lambda: closure(Progression(1, 3)).sample(10**6 + 1), ValueError,
     "window bound 1000001 must lie in [1, 1000000]"),
    (lambda: SuiteConfig(max_element=0), ValueError, "max_element must be positive"),
    (lambda: SuiteConfig(graph_bounds=(3, -1)), ValueError, "graph bounds must be nonnegative"),
    # the records without an __init__ of their own count their values
    (lambda: ClosureSet((3,)), TypeError, "ClosureSet takes 2 values"),
    (lambda: OrderWitness(7, 1, "r", None), TypeError, "OrderWitness takes 3 values"),
])
def test_validation_messages(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


def test_importing_the_cli_loads_no_dataclass_machinery():
    # each dataclass generates and execs its methods at import, and the
    # dataclasses module imports inspect, and a NamedTuple imports
    # typing, which python -S does not load at start-up; every kirch
    # call would pay for them
    code = ("import sys, kirch.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"

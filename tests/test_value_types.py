"""The record types behave as the frozen dataclasses they were declared as.

Each of the library's record types is compared with its make_dataclass
twin (oracles.DATACLASS_TWINS) on sample values: repr, == and != among
the samples and against other types, hash, __match_args__, keyword
construction and defaults, the error raised on assignment and deletion,
and copies through pickle and deepcopy. A fresh interpreter's
`import pwanet.cli` must load neither dataclasses nor inspect.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

import pwanet
from pwanet import lp
from pwanet.network import (
    Network,
    OutputLayer,
    PlainLayer,
    PwaLayer,
    ReluLayer,
    UnknownLayer,
)
from pwanet.numeric import ColVec, Mat
from pwanet.polyhedra import LinearConstraint, Polyhedron
from pwanet.pwa import AffinePiece, Univalent, UnivalenceViolation, identity_pwaf

from oracles import DATACLASS_TWINS, relu_reference

_LC = LinearConstraint(ColVec([1, -2]), Fraction(3))
_LC2 = LinearConstraint(ColVec([0, 1]), Fraction(-1, 3))
_POLY = Polyhedron(2, (_LC,))
_IDENTITY = identity_pwaf(2)

# Per type, positional arguments of the samples, already in the form the
# checked constructor stores, so the unchecked twin stores the same.
SAMPLES = {
    lp.Optimal: [
        (Fraction(1, 2), ColVec([1, 2])),
        (Fraction(1, 2), ColVec([1, 3])),
        (Fraction(-1), ColVec([1, 2])),
    ],
    lp.Infeasible: [((1, 1),), ((0, 2, 5),), ()],
    lp.Unbounded: [()],
    LinearConstraint: [(ColVec([1, -2]), Fraction(3)), (ColVec([1, -2]), Fraction(1, 3))],
    Polyhedron: [(2,), (2, (_LC,)), (2, (_LC, _LC2)), (3,)],
    AffinePiece: [
        (_POLY, Mat([[1, 0], [0, 1]]), ColVec([0, 0])),
        (_POLY, Mat([[1, 0], [0, 1]]), ColVec([0, 1])),
        (Polyhedron(2), Mat([[1, 0]]), ColVec([5])),
    ],
    Univalent: [()],
    UnivalenceViolation: [
        (0, 1, 0, ColVec([Fraction(5, 6), Fraction(5, 6)])),
        (0, 2, 0, ColVec([Fraction(5, 6), Fraction(5, 6)])),
        (0, 1, 1, ColVec([-1])),
    ],
    OutputLayer: [(2,), (3,)],
    PwaLayer: [(_IDENTITY,), (identity_pwaf(2),)],
    ReluLayer: [(2,), (0,)],
    PlainLayer: [(relu_reference, 2, 2), (relu_reference, 2, 3), (abs, 2, 2)],
    UnknownLayer: [(2, 3), (3, 2)],
    Network: [
        (2, 2, (OutputLayer(2),)),
        (2, 2, (ReluLayer(2), OutputLayer(2))),
        (2, 3, (UnknownLayer(2, 3), OutputLayer(3))),
    ],
}

TYPES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _pairs(cls):
    """Each sample as the library value and as its twin's value."""
    twin = DATACLASS_TWINS[cls]
    return [(cls(*args), twin(*args)) for args in SAMPLES[cls]]


def test_every_record_type_has_a_twin_and_samples():
    assert set(SAMPLES) == set(DATACLASS_TWINS)
    assert len(SAMPLES) == 14


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestAgainstTheDataclassTwin:
    def test_repr(self, cls):
        for value, twin in _pairs(cls):
            assert repr(value) == repr(twin)

    def test_equality_and_hash(self, cls):
        pairs = _pairs(cls)
        for value, twin in pairs:
            assert hash(value) == hash(twin)
            for other, other_twin in pairs:
                assert (value == other) is (twin == other_twin)
                assert (value != other) is (twin != other_twin)
                if value == other:
                    assert hash(value) == hash(other)

    def test_other_types_are_unequal(self, cls):
        for value, twin in _pairs(cls):
            assert value != twin and not value == twin
            for other_cls in TYPES:
                if other_cls is not cls:
                    for other, _ in _pairs(other_cls):
                        assert value != other and not value == other
            assert value != object() and value != ()

    def test_match_args_keywords_and_defaults(self, cls):
        twin_cls = DATACLASS_TWINS[cls]
        assert cls.__match_args__ == twin_cls.__match_args__
        for args in SAMPLES[cls]:
            keywords = dict(zip(cls.__match_args__, args))
            value, twin = cls(**keywords), twin_cls(**keywords)
            assert value == cls(*args)
            assert repr(value) == repr(twin)
            assert {name: getattr(value, name) for name in cls.__match_args__} == {
                name: getattr(twin, name) for name in cls.__match_args__
            }

    def test_assignment_and_deletion_raise_as_the_twin_does(self, cls):
        value, twin = _pairs(cls)[0]
        for name in cls.__match_args__ + ("other",):
            for target in (value, twin):
                with pytest.raises(FrozenInstanceError) as assigned:
                    setattr(target, name, 1)
                with pytest.raises(FrozenInstanceError) as deleted:
                    delattr(target, name)
                assert str(assigned.value) == f"cannot assign to field {name!r}"
                assert str(deleted.value) == f"cannot delete field {name!r}"
        assert value == cls(*SAMPLES[cls][0])

    def test_pickle_and_deepcopy_round_trip(self, cls):
        for value, twin in _pairs(cls):
            twin_copy = copy.deepcopy(twin)
            for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(restored) is cls
                assert repr(restored) == repr(value)
                # A PwaLayer's function compares by identity, in both.
                assert (restored == value) is (twin_copy == twin)
                assert restored.__dict__.keys() == value.__dict__.keys()


def test_polyhedron_and_infeasible_defaults():
    assert Polyhedron(2) == Polyhedron(2, ()) == Polyhedron(dim=2, constraints=[])
    assert repr(Polyhedron(2)) == repr(DATACLASS_TWINS[Polyhedron](2))
    assert lp.Infeasible().certificate == ()
    assert lp.Infeasible((1, 1)) == lp.Infeasible()
    assert hash(lp.Infeasible((1, 1))) == hash(lp.Infeasible())
    assert repr(lp.Infeasible((1, 1))) == "Infeasible()"


def test_pattern_matching_reads_the_fields():
    match lp.Optimal(Fraction(1, 2), ColVec([1])):
        case lp.Optimal(value, witness):
            assert (value, witness) == (Fraction(1, 2), ColVec([1]))
    match lp.Infeasible((3, 1)):
        case lp.Infeasible(certificate):
            assert certificate == (3, 1)


# Every module `import pwanet.cli` loaded while its record types were
# dataclasses.
_PWANET_MODULES = {
    "pwanet",
    "pwanet.cli",
    "pwanet.formats",
    "pwanet.lp",
    "pwanet.network",
    "pwanet.numeric",
    "pwanet.polyhedra",
    "pwanet.pwa",
    "pwanet.pwa_algebra",
}


def test_cold_import_loads_no_dataclasses():
    code = (
        "import sys; before = set(sys.modules); import pwanet.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    src = Path(pwanet.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded, sorted(loaded)
    assert _PWANET_MODULES <= loaded, sorted(loaded)

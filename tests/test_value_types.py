"""The record types behave as the frozen dataclasses they were declared as.

Each of the library's record types is compared with its make_dataclass
twin (oracles.DATACLASS_TWINS) on sample values: repr, == and != among
the samples and against other types, hash, __match_args__, keyword
construction and defaults, the error raised on assignment and deletion,
and copies through pickle and deepcopy. The pickle bytes of one sample
per type are pinned, and a value's cached integer form changes none of
them. A fresh interpreter's `import pwanet.cli` must load neither
dataclasses nor inspect.
"""

import copy
import hashlib
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
from pwanet.polyhedra import LinearConstraint, Polyhedron, _row
from pwanet.pwa import AffinePiece, Univalent, UnivalenceViolation, _int_map, identity_pwaf

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

# sha256 of pickle.dumps(value, protocol=4) for the first sample of each
# type, as the types pickled before any of them cached a value outside
# its fields. Before Python 3.11 a Fraction pickles as its string, which
# changes the digests of the types that hold one.
PICKLE_DIGESTS = {
    "AffinePiece": "663888234c4707f4c8e2a2ed9abe5293c18a08646449f34d4158ffd28afbee49",
    "Infeasible": "af4e3f3a8e58a9bd5a8e09ba86029f5afef36d330664cd8e18568a3616cf75d3",
    "LinearConstraint": "f3e77da07a8b24e56568023885d60f2501be24af30eca6acfedc478d1765f01a",
    "Network": "da537e289c8b341c350de7bcd046b6d9417812479644a8a4588d94501b7d38c2",
    "Optimal": "91b52e770c8d99404ff41bc9e65a43e100114d52639e5bd17cc6333350e6e866",
    "OutputLayer": "cd9cd113aeb6d358b96dc0ab7b3ca9cffbac80cae9503b3ed9c8315dc357d928",
    "PlainLayer": "e071367c22f3de336569b526b03830b39fa19c2822598faf7ba3576fcfc85aa5",
    "Polyhedron": "67d1623da32cea0540c2dd2e7d80aa04acd4b7bbc4937656eb005d05123c758f",
    "PwaLayer": "bb5b41d2e5dc28182a15bf13fd0e9038be38fe547d379c98cfb2eb52585d59ac",
    "ReluLayer": "f560ed52d7dd2c3aecf033f72321d3dc68ae1ee92f2669f7335cc7253b479797",
    "Unbounded": "6b170639c216defb2ef28d040675007f744488d2ee3d56cadae9703f1cd884eb",
    "UnivalenceViolation": "0b0ae764ccd3d3514b2efe7cf291f0b41a3621404128319ec32e04ae1a121b3b",
    "Univalent": "f523015b38b8cd88118a8371d5e565b02fd80a89a50d3c61fc6325e58da7c4c4",
    "UnknownLayer": "f1e459b44d3850964d7a143a6fc5e40a680c7e269320c8abf3fed75bdbe4c2d8",
}
if sys.version_info < (3, 11):
    PICKLE_DIGESTS.update({
        "AffinePiece": "64169de598129efdedd0e7ddc2febe90a4935af9e81b402896a5642b93c7322b",
        "LinearConstraint": "d4aab24d0c278411043a11025ebf66d81eaf6a20776a5ad2ee54c79de84a4884",
        "Optimal": "da6815a355e9e09cebc791c3068b7777c0cae49c141046a8a8263fe7a3445207",
        "PwaLayer": "906a06647274330060c865fef70198e64abc677a435f61a477ab61f74080633d",
        "UnivalenceViolation": "d9616fb535eb225ecd9b4eb480b9f6aa456a460d85328127dd8be8825776b06e",
    })


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

    def test_pickle_bytes_are_pinned(self, cls):
        # Univalent and Unbounded have no fields: their state is None, as
        # for any instance with an empty dict, and not {}.
        value = cls(*SAMPLES[cls][0])
        digest = hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()
        assert digest == PICKLE_DIGESTS[cls.__name__]


def test_cached_integer_forms_are_not_part_of_a_value():
    """A constraint with its integer row cached (polyhedra._row), and a
    piece with its integer map cached (pwa._int_map) over that
    constraint, pickle, copy and deepcopy as fresh ones do, and compare,
    hash and print the same."""

    def build():
        lc = LinearConstraint(ColVec([1, "-1/2"]), Fraction(5, 3))
        return lc, AffinePiece(Polyhedron(2, (lc,)), Mat([["1/2", "2/3"]]), ColVec(["1/5"]))

    (lc, piece), (fresh_lc, fresh_piece) = build(), build()
    assert _row(lc) == (6, [6, -3, 10]) and _int_map(piece) == (30, [[15, 20]], [6])
    assert "_row" in lc.__dict__ and "_int_map" in piece.__dict__
    for value, fresh in ((lc, fresh_lc), (piece, fresh_piece)):
        assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)
        pickled = pickle.dumps(fresh, protocol=4)
        assert pickle.dumps(value, protocol=4) == pickled
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickled)):
            assert type(copied) is type(fresh) and copied == fresh
            assert copied.__dict__.keys() == fresh.__dict__.keys()
            assert pickle.dumps(copied, protocol=4) == pickled


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

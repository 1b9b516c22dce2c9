"""Copying and pickling the Record types: an equal object, read the same way.

``Record.__reduce__`` rebuilds through ``__init__``, so a copy validates
its fields again. A copy also keeps each probability's type, which
equality does not see: ``Fraction(1, 4) == 0.25``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from bayesbits import (
    Distribution,
    HostPolicy,
    MhpConfig,
    ModelSpace,
    ObservationModel,
    Scenario,
    mhp_scenario,
)
from helpers import probability_types

LABELS = ("A", "B")
CELLS = {
    "exact": [[Fraction(1, 3), Fraction(1)], [Fraction(2, 3), Fraction(0)]],
    "float": [[0.25, 1.0], [0.75, 0.0]],
    "mixed": [[Fraction(1, 3), 1.0], [Fraction(2, 3), 0.0]],
    "int-and-string": [["1/3", 1], ["2/3", 0]],
}
PRIORS = {
    "exact": [Fraction(1, 4), Fraction(3, 4)],
    "float": [0.25, 0.75],
    "mixed": [Fraction(1, 4), 0.75],
    "int-and-string": ["1/4", "3/4"],
}


def observation_model(kind):
    return ObservationModel(["x", "y"], LABELS, CELLS[kind])


def scenario(kind):
    return Scenario(kind, ModelSpace(Distribution(LABELS, PRIORS[kind])), observation_model(kind))


RECORDS = {
    **{f"distribution-{kind}": lambda kind=kind: Distribution(LABELS, PRIORS[kind])
       for kind in PRIORS},
    "model-space": lambda: ModelSpace(Distribution(LABELS, PRIORS["exact"])),
    **{f"observation-model-{kind}": lambda kind=kind: observation_model(kind) for kind in CELLS},
    **{f"scenario-{kind}": lambda kind=kind: scenario(kind) for kind in CELLS},
    "mhp-config": lambda: MhpConfig(door_count=5, contestant_pick="C",
                                    host_policy=HostPolicy.FORGETFUL),
    "mhp-scenario": lambda: mhp_scenario(MhpConfig(door_count=6)),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


def hash_or_type_error(record):
    try:
        return hash(record)
    except TypeError:  # a field holds a dict: a Scenario's metadata
        return TypeError


@pytest.mark.parametrize("name", ["scenario-exact", "scenario-float", "mhp-scenario"])
def test_a_record_holding_a_dict_is_unhashable_by_its_own_name(name):
    record = RECORDS[name]()
    with pytest.raises(TypeError) as exc:
        hash(record)
    assert str(exc.value) == f"unhashable type: '{type(record).__name__}'"


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", RECORDS)
def test_a_copy_is_equal_and_reads_the_same(name, how):
    record = RECORDS[name]()
    again = COPIES[how](record)
    assert type(again) is type(record)
    assert again == record
    assert repr(again) == repr(record)
    assert hash_or_type_error(again) == hash_or_type_error(record)
    assert probability_types(again) == probability_types(record)


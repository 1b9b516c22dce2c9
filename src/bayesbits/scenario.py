"""Declarative inference scenarios, Monty Hall generators, and file I/O.

A scenario bundles a prior over models (:class:`ModelSpace`) with a
likelihood matrix over observations (:class:`ObservationModel`). Both
types live here, so generating, loading or saving a scenario loads no
update engine. The Monty Hall family is generated rather than hand-typed:
doors are models (car locations), host actions are observations, and the
host policy fixes the likelihoods.

Scenario files are JSON. Probabilities may be written as JSON numbers
(decimals parse as floats) or as strings in the grammar of
``core.parse_probability``, ``"num/den"`` or ``"0.25"`` (parsed as exact
rationals); exact values round-trip exactly. Unknown keys are rejected
so typos fail loudly.
"""

from __future__ import annotations

import enum
import json
import math
import os
import stat
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Sequence

from .core import Distribution, Probability, as_probability, probability_repr
from .core import _sum_unless_one
from .errors import DomainError, InvariantViolation, ScenarioFormatError, UnknownLabelError
from .record import Record

__all__ = [
    "HostPolicy",
    "MAX_DOORS",
    "MHP_PRESETS",
    "MhpConfig",
    "ModelSpace",
    "ObservationModel",
    "Scenario",
    "door_labels",
    "load_scenario",
    "mhp_preset",
    "mhp_scenario",
    "save_scenario",
    "scenario_from_json_text",
    "scenario_to_json_text",
]


class ModelSpace(Record):
    """The hypothesis space: a prior distribution over model labels."""

    __slots__ = _fields = ("prior",)
    prior: Distribution

    def __init__(self, prior: Distribution) -> None:
        self._set(prior=prior)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.prior.labels


class ObservationModel(Record):
    """Likelihood matrix P(x | theta), rows = observations, columns = models.

    Every column is itself a distribution over the observation space: for
    each model the likelihoods must sum to 1 (exactly when the column is
    all rationals, within the float tolerance otherwise). ``values`` holds
    each distinct value once, in row-major order of first appearance, and
    ``cells`` each row as indices into it; ``likelihood`` is built on read.
    """

    __slots__ = ("observation_labels", "model_labels", "values", "cells")
    _fields = ("observation_labels", "model_labels", "likelihood")
    observation_labels: tuple[str, ...]
    model_labels: tuple[str, ...]
    values: tuple[Probability, ...]
    cells: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        observation_labels: Sequence[str],
        model_labels: Sequence[str],
        likelihood: Iterable[Iterable[Probability | int | str]],
    ) -> None:
        # Each distinct cell object is validated once, in row-major order of
        # first appearance, so the first bad cell raises. ``rows`` keeps every
        # object alive while its id is in use.
        rows = [tuple(row) for row in likelihood]
        distinct = {id(p): p for row in rows for p in row}
        values = tuple([as_probability(p) for p in distinct.values()])
        index = dict(zip(distinct, range(len(values))))
        cells = tuple([tuple(map(index.__getitem__, map(id, row))) for row in rows])
        self._init(observation_labels, model_labels, values, cells)

    def _init(self, observation_labels: Sequence[str], model_labels: Sequence[str],
              values: tuple[Probability, ...], cells: tuple[tuple[int, ...], ...]) -> None:
        """Set and check the fields; the parser and the generators, which intern, call it too."""
        self._set(
            observation_labels=tuple(observation_labels),
            model_labels=tuple(model_labels),
            values=values,
            cells=cells,
        )
        self._check()

    @property
    def likelihood(self) -> tuple[tuple[Probability, ...], ...]:
        values = self.values
        return tuple([tuple(map(values.__getitem__, row)) for row in self.cells])

    def _check(self) -> None:
        """Shape, then each column's exact sum over the lcm of its own denominators,
        one scaled numerator per distinct value; a column whose sum is not exactly 1
        goes to ``_sum_unless_one``, for the float tolerance and the error text."""
        if not self.observation_labels or not self.model_labels:
            raise InvariantViolation("observation model needs >= 1 observation and >= 1 model")
        if len(set(self.observation_labels)) != len(self.observation_labels):
            raise InvariantViolation(f"duplicate observation labels in {self.observation_labels}")
        if len(set(self.model_labels)) != len(self.model_labels):
            raise InvariantViolation(f"duplicate model labels in {self.model_labels}")
        if len(self.cells) != len(self.observation_labels):
            raise InvariantViolation(
                f"{len(self.cells)} likelihood rows for "
                f"{len(self.observation_labels)} observations"
            )
        for x, row in zip(self.observation_labels, self.cells):
            if len(row) != len(self.model_labels):
                raise InvariantViolation(
                    f"likelihood row {x!r} has {len(row)} entries for "
                    f"{len(self.model_labels)} models"
                )
        values, pairs = self.values, [p.as_integer_ratio() for p in self.values]
        for theta, column in zip(self.model_labels, zip(*self.cells)):
            present = set(column)
            den = math.lcm(*{pairs[k][1] for k in present})
            weight = {k: pairs[k][0] * (den // pairs[k][1]) for k in present}
            if sum(map(weight.__getitem__, column)) == den:
                continue
            total = _sum_unless_one(list(map(pairs.__getitem__, column)),
                                    map(values.__getitem__, column))
            if total is not None:
                raise InvariantViolation(
                    f"likelihood column for model {theta!r} sums to {total}, expected 1"
                )

    def _x_index(self, x: str) -> int:
        try:
            return self.observation_labels.index(x)
        except ValueError:
            raise UnknownLabelError(
                f"unknown observation {x!r}; have {list(self.observation_labels)}"
            ) from None

    def _theta_index(self, theta: str) -> int:
        try:
            return self.model_labels.index(theta)
        except ValueError:
            raise UnknownLabelError(
                f"unknown model {theta!r}; have {list(self.model_labels)}"
            ) from None


class Scenario(Record):
    """A named model space plus observation model, with free annotations."""

    __slots__ = _fields = ("name", "model_space", "observation_model", "metadata")
    __hash__ = None  # metadata is a dict
    name: str
    model_space: ModelSpace
    observation_model: ObservationModel
    metadata: dict[str, Any]

    def __init__(
        self,
        name: str,
        model_space: ModelSpace,
        observation_model: ObservationModel,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        if model_space.labels != observation_model.model_labels:
            raise InvariantViolation(
                f"prior is over models {list(model_space.labels)} but likelihood "
                f"columns are {list(observation_model.model_labels)}"
            )
        metadata = {} if metadata is None else metadata
        if not isinstance(metadata, dict):  # a load refuses it, so a save must not write it
            raise InvariantViolation(f"metadata must be a dict, got {type(metadata).__name__}")
        self._set(
            name=name,
            model_space=model_space,
            observation_model=observation_model,
            metadata=metadata,
        )


class HostPolicy(enum.Enum):
    """How the Monty Hall host chooses the door to open."""

    STANDARD = "standard"
    FORGETFUL = "forgetful"


# The likelihood matrix of an N-door game has O(N^2) cells, so the door
# count is bounded before any label or cell is built.
MAX_DOORS = 1000


def door_labels(door_count: int) -> tuple[str, ...]:
    """Stable door names: A, B, C, then D4, D5, ... for larger games."""
    if door_count < 3:
        raise DomainError(f"Monty Hall needs at least 3 doors, got {door_count}")
    if door_count > MAX_DOORS:
        raise DomainError(f"Monty Hall supports at most {MAX_DOORS} doors, got {door_count}")
    labels = ["A", "B", "C"] + [f"D{i}" for i in range(4, door_count + 1)]
    return tuple(labels)


class MhpConfig(Record):
    """Parameters of one Monty Hall game.

    ``prior`` defaults to uniform over the doors. The standard host
    knowingly opens a goat door (tie-breaking uniformly when the pick
    hides the car); the forgetful host opens any non-picked door
    uniformly, which makes car reveals possible outcomes.
    """

    __slots__ = _fields = ("door_count", "prior", "contestant_pick", "host_policy")
    door_count: int
    prior: Distribution
    contestant_pick: str
    host_policy: HostPolicy

    def __init__(
        self,
        door_count: int = 3,
        prior: Distribution | None = None,
        contestant_pick: str = "A",
        host_policy: HostPolicy = HostPolicy.STANDARD,
    ) -> None:
        doors = door_labels(door_count)
        if contestant_pick not in doors:
            raise UnknownLabelError(
                f"contestant pick {contestant_pick!r} is not one of {list(doors)}"
            )
        if prior is None:
            prior = Distribution.uniform(doors)
        elif prior.labels != doors:
            raise InvariantViolation(
                f"prior is over {list(prior.labels)} but the doors are {list(doors)}"
            )
        self._set(
            door_count=door_count,
            prior=prior,
            contestant_pick=contestant_pick,
            host_policy=host_policy,
        )


# A game's likelihood, interned as ObservationModel holds it: its observations,
# its values in row-major order of first appearance, and its rows of indices.
_Likelihood = tuple[list[str], tuple[Fraction, ...], tuple[tuple[int, ...], ...]]


def _first_appearance(
    kinds: tuple[Fraction, ...], first_row: tuple[int, ...]
) -> tuple[tuple[Fraction, ...], list[int]]:
    """``kinds`` in their order of first appearance in ``first_row``, a row of
    kind numbers that holds every kind, and each kind's index in that order."""
    order = list(dict.fromkeys(first_row))
    return tuple([kinds[k] for k in order]), [order.index(k) for k in range(len(kinds))]


def _standard_likelihood(doors: tuple[str, ...], pick: str) -> _Likelihood:
    n, p = len(doors), doors.index(pick)
    opened = [i for i in range(n) if i != p]

    def row(door: int, zero: int, picked: int, elsewhere: int) -> tuple[int, ...]:
        cells = [elsewhere] * n
        cells[p] = picked
        cells[door] = zero
        return tuple(cells)

    # the car is behind the opened door: 0; behind the pick: the host picks
    # uniformly among the other doors; elsewhere: the host avoids both
    values, kind = _first_appearance(
        (Fraction(0), Fraction(1, n - 1), Fraction(1, n - 2)), row(opened[0], 0, 1, 2)
    )
    return [f"Monty_{doors[d]}" for d in opened], values, tuple([row(d, *kind) for d in opened])


def _forgetful_likelihood(doors: tuple[str, ...], pick: str) -> _Likelihood:
    # The host opens any non-picked door uniformly, so revealing the car
    # is a real outcome; listing those outcomes keeps every likelihood
    # column a full distribution. Conditioning on "a goat was revealed"
    # happens by querying the goat observation.
    n, p = len(doors), doors.index(pick)
    opened = [i for i in range(n) if i != p]

    def row(door: int, fill: int, mark: int) -> tuple[int, ...]:
        cells = [fill] * n
        cells[door] = mark
        return tuple(cells)

    values, (zero, one_of) = _first_appearance(
        (Fraction(0), Fraction(1, n - 1)), row(opened[0], 1, 0)
    )
    goats = [row(d, one_of, zero) for d in opened]
    cars = [row(d, zero, one_of) for d in opened]
    observations = [f"Monty_{doors[d]}" for d in opened] + [f"Monty_{doors[d]}_car" for d in opened]
    return observations, values, tuple(goats + cars)


def mhp_scenario(cfg: MhpConfig, name: str | None = None) -> Scenario:
    """Build the Monty Hall scenario described by ``cfg``.

    Doors are the models (where the car is), host actions are the
    observations. All generated probabilities are exact rationals.
    """
    doors = door_labels(cfg.door_count)
    if cfg.host_policy is HostPolicy.STANDARD:
        observations, values, cells = _standard_likelihood(doors, cfg.contestant_pick)
    else:
        observations, values, cells = _forgetful_likelihood(doors, cfg.contestant_pick)
    om = ObservationModel.__new__(ObservationModel)  # interned already: no id dedupe
    om._init(observations, doors, values, cells)
    if name is None:
        name = (
            f"{cfg.door_count}-door Monty Hall "
            f"({cfg.host_policy.value} host, pick {cfg.contestant_pick})"
        )
    return Scenario(
        name=name,
        model_space=ModelSpace(prior=cfg.prior),
        observation_model=om,
        metadata={
            "door_count": cfg.door_count,
            "contestant_pick": cfg.contestant_pick,
            "host_policy": cfg.host_policy.value,
        },
    )


# classic 3-door games, pick A: variant -> (name, prior, policy); import builds no Distribution
MHP_PRESETS: dict[str, tuple[str, tuple[str, ...] | None, HostPolicy]] = {
    "traditional": ("Traditional Monty Hall", None, HostPolicy.STANDARD),
    "biased": ("Biased Monty Hall", ("1/2", "1/3", "1/6"), HostPolicy.STANDARD),
    "forgetful": ("Forgetful Monty Hall", None, HostPolicy.FORGETFUL),
}


def mhp_preset(variant: str) -> Scenario:
    """The classic game ``variant`` of :data:`MHP_PRESETS`."""
    name, prior, policy = MHP_PRESETS[variant]
    probs = None if prior is None else Distribution(door_labels(3), prior)
    return mhp_scenario(MhpConfig(prior=probs, host_policy=policy), name=name)


# --- file format -----------------------------------------------------------

_TOP_KEYS = {"name", "models", "observations", "likelihood", "metadata"}
_MODEL_KEYS = {"label", "prior"}


def _parse_prob(value: Any, where: str, parsed: dict[str, Probability]) -> Probability:
    """One cell: :func:`as_probability` parses a string and checks type and range.

    ``parsed`` maps each string of the document parsed so far to its value,
    so a string that repeats is parsed once. It holds successes only: a bad
    string raises at the first place it is read.
    """
    if type(value) is str and value in parsed:
        return parsed[value]
    if not isinstance(value, (str, int, float)):
        raise ScenarioFormatError(
            f"{where}: expected a number or 'num/den' string, got {type(value).__name__}"
        )
    try:
        p = as_probability(value)
    except DomainError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    if type(value) is str:
        parsed[value] = p
    return p


def _printable(text: str, where: str) -> str:
    """``text`` when it encodes as UTF-8; a lone surrogate would fail only when printed."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ScenarioFormatError(f"{where}: not encodable as UTF-8: {exc.reason}") from exc
    return text


def _json_list(items: Sequence[str], level: int, brackets: str = "[]") -> str:
    """The JSON array of the encoded ``items``, laid out as ``indent=2`` lays it ``level`` deep.

    With ``brackets="{}"`` and items ``"key": value``, the JSON object.
    """
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _prob_json(p: Probability) -> str:
    """One probability as JSON: a "num/den" string when exact, else a number."""
    if isinstance(p, Fraction):
        return f'"{probability_repr(p)}"'  # digits and a slash need no escapes
    return json.dumps(p)


# metadata value types whose JSON text does not depend on the indent
_FLAT_TYPES = frozenset({str, int, float, bool, type(None)})


def _metadata_json(metadata: dict[str, Any]) -> str:
    """``json.dumps(metadata, indent=2)`` as it reads one level deep in a document.

    A flat object, with ``str`` keys and ``str``, ``int``, ``float``,
    ``bool`` or ``None`` values (the ``{}`` of a scenario built in code,
    the metadata of a Monty Hall game), is laid out here: each string goes
    through json's C escaper and each other value through ``json.dumps``
    without an indent, json's C path, which writes the same text. Any
    other metadata goes through ``json.dumps(indent=2)``, its text and
    errors unchanged.
    """
    # a fast path, kept by BENCH_4.json fast_paths["metadata_flat_branch"]
    if all(type(key) is str and type(value) in _FLAT_TYPES for key, value in metadata.items()):
        return _json_list([
            encode_basestring_ascii(key) + ": "
            + (encode_basestring_ascii(value) if type(value) is str else json.dumps(value))
            for key, value in metadata.items()
        ], 1, "{}")
    return json.dumps(metadata, indent=2).replace("\n", "\n  ")


def _check_text_fields(s: Scenario) -> None:
    """Refuse a name or label that :func:`scenario_from_json_text` would refuse.

    A lone surrogate would be written as an escape that does not load,
    and a non-string would make the C escaper raise a bare ``TypeError``.
    The error names the field. One join and one encode check the lot.
    """
    ms, om = s.model_space, s.observation_model
    try:  # a fast path, kept by BENCH_4.json fast_paths["text_fields_join_first"]
        "".join([s.name, *ms.labels, *om.observation_labels]).encode("utf-8")
        return
    except (TypeError, UnicodeEncodeError):
        pass
    fields = chain(
        [("name", s.name)],
        ((f"models[{i}].label", label) for i, label in enumerate(ms.labels)),
        ((f"observations[{i}]", label) for i, label in enumerate(om.observation_labels)),
    )
    for field, text in fields:
        where = f"cannot write scenario: {field}"
        if not isinstance(text, str):
            raise ScenarioFormatError(f"{where}: expected a string, got {type(text).__name__}")
        _printable(text, where)


def scenario_to_json_text(s: Scenario) -> str:
    """Canonical JSON text of a scenario; exact values stay "num/den".

    The text is ``json.dumps(document, indent=2)``, laid out here: given
    an indent, ``json`` encodes in pure Python, which cost more than the
    rest of a save. The name, labels and flat metadata go through json's
    C string escaper, and only metadata that is not flat goes through
    ``json.dumps(indent=2)`` (see :func:`_metadata_json`). Each
    likelihood value and each distinct prior object is formatted once. A
    name or label that a load would refuse raises :class:`ScenarioFormatError`.
    """
    _check_text_fields(s)
    # a fast path, kept by BENCH_4.json fast_paths["writer_layout"]
    ms, om = s.model_space, s.observation_model
    probs = ms.prior.probs
    prior_texts = {key: _prob_json(p) for key, p in dict(zip(map(id, probs), probs)).items()}
    models = [
        '{\n      "label": ' + encode_basestring_ascii(label)
        + ',\n      "prior": ' + prior_texts[id(p)] + "\n    }"
        for label, p in zip(ms.labels, probs)
    ]
    texts = list(map(_prob_json, om.values))
    rows = [_json_list(list(map(texts.__getitem__, row)), 2) for row in om.cells]
    return (
        '{\n  "name": ' + encode_basestring_ascii(s.name)
        + ',\n  "models": ' + _json_list(models, 1)
        + ',\n  "observations": '
        + _json_list(list(map(encode_basestring_ascii, om.observation_labels)), 1)
        + ',\n  "likelihood": ' + _json_list(rows, 1)
        + ',\n  "metadata": ' + _metadata_json(s.metadata)
        + "\n}\n"
    )


def scenario_from_json_text(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario JSON; format errors carry line/field diagnostics."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ScenarioFormatError(f"{source}: JSON nested too deeply to parse") from exc
    except ValueError as exc:  # an integer literal with more digits than CPython converts
        raise ScenarioFormatError(f"{source}: number too long: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{source}: top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ScenarioFormatError(f"{source}: unknown keys {sorted(unknown)}")
    for key in ("name", "models", "observations", "likelihood"):
        if key not in doc:
            raise ScenarioFormatError(f"{source}: missing required key {key!r}")
    if not isinstance(doc["name"], str):
        raise ScenarioFormatError(f"{source}: name: expected a string")
    _printable(doc["name"], f"{source}: name")
    if not isinstance(doc["models"], list) or not doc["models"]:
        raise ScenarioFormatError(f"{source}: models: expected a non-empty list")

    model_labels: list[str] = []
    priors: list[Probability] = []
    parsed: dict[str, Probability] = {}
    for i, entry in enumerate(doc["models"]):
        where = f"{source}: models[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{where}: expected an object with label and prior")
        bad = set(entry) - _MODEL_KEYS
        if bad:
            raise ScenarioFormatError(f"{where}: unknown keys {sorted(bad)}")
        if "label" not in entry or "prior" not in entry:
            raise ScenarioFormatError(f"{where}: needs both 'label' and 'prior'")
        if not isinstance(entry["label"], str):
            raise ScenarioFormatError(f"{where}.label: expected a string")
        model_labels.append(_printable(entry["label"], f"{where}.label"))
        priors.append(_parse_prob(entry["prior"], f"{where}.prior", parsed))

    if not isinstance(doc["observations"], list) or not all(
        isinstance(x, str) for x in doc["observations"]
    ):
        raise ScenarioFormatError(f"{source}: observations: expected a list of strings")
    observations = [
        _printable(x, f"{source}: observations[{i}]") for i, x in enumerate(doc["observations"])
    ]

    if not isinstance(doc["likelihood"], list):
        raise ScenarioFormatError(f"{source}: likelihood: expected a list of rows")
    values: list[Probability] = []  # interned as ObservationModel holds them
    index: dict[str, int] = {}  # each likelihood string so far -> its value's index

    def intern(v: Any, where: str) -> int:
        values.append(_parse_prob(v, where, parsed))
        if type(v) is str:
            index[v] = len(values) - 1
        return len(values) - 1

    cells: list[tuple[int, ...]] = []
    for i, row in enumerate(doc["likelihood"]):
        if not isinstance(row, list):
            raise ScenarioFormatError(f"{source}: likelihood[{i}]: expected a list")
        # a string parsed before is looked up here, without formatting its location
        cells.append(tuple([
            index[v] if type(v) is str and v in index
            else intern(v, f"{source}: likelihood[{i}][{j}]")
            for j, v in enumerate(row)
        ]))

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ScenarioFormatError(f"{source}: metadata: expected an object")

    ms = ModelSpace(prior=Distribution(model_labels, priors))
    om = ObservationModel.__new__(ObservationModel)  # values validated as they were parsed
    om._init(observations, model_labels, tuple(values), tuple(cells))
    return Scenario(name=doc["name"], model_space=ms, observation_model=om, metadata=metadata)


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write :func:`scenario_to_json_text` of ``s`` to ``path``, created or replaced.

    A regular file is written over and then cut to length, not emptied
    on open: ext4 flushes a file truncated to zero to the disk when it is
    closed, so each save would wait, for a varying time, on the disk.
    """
    data = scenario_to_json_text(s).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()  # drop what is left of a longer old file


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"{p}: cannot read scenario file: {exc}") from exc
    return scenario_from_json_text(text, source=str(p))

"""Declarative inference scenarios, Monty Hall generators, and file I/O.

A scenario bundles a prior over models with a likelihood matrix over
observations. The Monty Hall family is generated rather than hand-typed: doors are
models (car locations), host actions are observations, and the host
policy fixes the likelihoods.

Scenario files are JSON. Probabilities may be written as decimal numbers
(parsed as floats) or as ``"num/den"`` strings (parsed as exact
rationals); exact values round-trip exactly. Unknown keys are rejected
so typos fail loudly.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import Distribution, Probability, as_probability, probability_repr
from .engine import ModelSpace, ObservationModel
from .errors import DomainError, InvariantViolation, ScenarioFormatError, UnknownLabelError

__all__ = [
    "HostPolicy",
    "MAX_DOORS",
    "MhpConfig",
    "Scenario",
    "door_labels",
    "load_scenario",
    "mhp_scenario",
    "save_scenario",
    "scenario_from_json_text",
    "scenario_to_json_text",
]


@dataclass(frozen=True)
class Scenario:
    """A named model space plus observation model, with free annotations."""

    name: str
    model_space: ModelSpace
    observation_model: ObservationModel
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model_space.labels != self.observation_model.model_labels:
            raise InvariantViolation(
                f"prior is over models {list(self.model_space.labels)} but likelihood "
                f"columns are {list(self.observation_model.model_labels)}"
            )

    @property
    def is_exact(self) -> bool:
        return self.model_space.prior.is_exact and self.observation_model.is_exact


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


@dataclass(frozen=True)
class MhpConfig:
    """Parameters of one Monty Hall game.

    ``prior`` defaults to uniform over the doors. The standard host
    knowingly opens a goat door (tie-breaking uniformly when the pick
    hides the car); the forgetful host opens any non-picked door
    uniformly, which makes car reveals possible outcomes.
    """

    door_count: int = 3
    prior: Distribution | None = None
    contestant_pick: str = "A"
    host_policy: HostPolicy = HostPolicy.STANDARD

    def __post_init__(self) -> None:
        doors = door_labels(self.door_count)
        if self.contestant_pick not in doors:
            raise UnknownLabelError(
                f"contestant pick {self.contestant_pick!r} is not one of {list(doors)}"
            )
        if self.prior is None:
            object.__setattr__(self, "prior", Distribution.uniform(doors))
        elif self.prior.labels != doors:
            raise InvariantViolation(
                f"prior is over {list(self.prior.labels)} but the doors are {list(doors)}"
            )


def _standard_likelihood(doors: tuple[str, ...], pick: str) -> tuple[list[str], list[list[Probability]]]:
    n = len(doors)
    observations = [f"Monty_{d}" for d in doors if d != pick]
    rows: list[list[Probability]] = []
    for d in doors:
        if d == pick:
            continue
        row: list[Probability] = []
        for theta in doors:
            if theta == d:
                row.append(Fraction(0))
            elif theta == pick:
                # car behind the pick: host picks uniformly among the other doors
                row.append(Fraction(1, n - 1))
            else:
                # car elsewhere: host avoids both the pick and the car
                row.append(Fraction(1, n - 2))
        rows.append(row)
    return observations, rows


def _forgetful_likelihood(doors: tuple[str, ...], pick: str) -> tuple[list[str], list[list[Probability]]]:
    # The host opens any non-picked door uniformly, so revealing the car
    # is a real outcome; listing those outcomes keeps every likelihood
    # column a full distribution. Conditioning on "a goat was revealed"
    # happens by querying the goat observation.
    n = len(doors)
    opened = [d for d in doors if d != pick]
    observations = [f"Monty_{d}" for d in opened] + [f"Monty_{d}_car" for d in opened]
    rows: list[list[Probability]] = []
    for d in opened:
        rows.append([Fraction(0) if theta == d else Fraction(1, n - 1) for theta in doors])
    for d in opened:
        rows.append([Fraction(1, n - 1) if theta == d else Fraction(0) for theta in doors])
    return observations, rows


def mhp_scenario(cfg: MhpConfig, name: str | None = None) -> Scenario:
    """Build the Monty Hall scenario described by ``cfg``.

    Doors are the models (where the car is), host actions are the
    observations. All generated probabilities are exact rationals.
    """
    doors = door_labels(cfg.door_count)
    assert cfg.prior is not None
    if cfg.host_policy is HostPolicy.STANDARD:
        observations, rows = _standard_likelihood(doors, cfg.contestant_pick)
    else:
        observations, rows = _forgetful_likelihood(doors, cfg.contestant_pick)
    if name is None:
        name = (
            f"{cfg.door_count}-door Monty Hall "
            f"({cfg.host_policy.value} host, pick {cfg.contestant_pick})"
        )
    return Scenario(
        name=name,
        model_space=ModelSpace(prior=cfg.prior),
        observation_model=ObservationModel(
            observation_labels=observations, model_labels=doors, likelihood=rows
        ),
        metadata={
            "door_count": cfg.door_count,
            "contestant_pick": cfg.contestant_pick,
            "host_policy": cfg.host_policy.value,
        },
    )


# --- file format -----------------------------------------------------------

_TOP_KEYS = {"name", "models", "observations", "likelihood", "metadata"}
_MODEL_KEYS = {"label", "prior"}
_RATIONAL_RE = re.compile(r"^\s*(\d+)\s*/\s*(\d+)\s*$")


def _parse_prob(value: Any, where: str) -> Probability:
    """One cell's file syntax; :func:`as_probability` checks its type and range."""
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value)
        if m is None:
            raise ScenarioFormatError(
                f"{where}: expected a number or 'num/den' string, got {value!r}"
            )
        try:
            num, den = int(m.group(1)), int(m.group(2))
        except ValueError as exc:  # more digits than CPython converts to int
            raise ScenarioFormatError(f"{where}: 'num/den' string too long: {exc}") from exc
        if den == 0:
            raise ScenarioFormatError(f"{where}: zero denominator in {value!r}")
        value = Fraction(num, den)
    elif not isinstance(value, (int, float)):
        raise ScenarioFormatError(
            f"{where}: expected a number or 'num/den' string, got {type(value).__name__}"
        )
    try:
        return as_probability(value)
    except DomainError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _prob_to_json(p: Probability) -> Any:
    if isinstance(p, Fraction):
        return probability_repr(p)
    return p


def scenario_to_json_text(s: Scenario) -> str:
    """Canonical JSON text of a scenario; exact values stay "num/den"."""
    doc = {
        "name": s.name,
        "models": [
            {"label": label, "prior": _prob_to_json(p)}
            for label, p in zip(s.model_space.labels, s.model_space.prior.probs)
        ],
        "observations": list(s.observation_model.observation_labels),
        "likelihood": [
            [_prob_to_json(p) for p in row] for row in s.observation_model.likelihood
        ],
        "metadata": dict(s.metadata),
    }
    return json.dumps(doc, indent=2) + "\n"


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
    if not isinstance(doc["models"], list) or not doc["models"]:
        raise ScenarioFormatError(f"{source}: models: expected a non-empty list")

    model_labels: list[str] = []
    priors: list[Probability] = []
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
        model_labels.append(entry["label"])
        priors.append(_parse_prob(entry["prior"], f"{where}.prior"))

    if not isinstance(doc["observations"], list) or not all(
        isinstance(x, str) for x in doc["observations"]
    ):
        raise ScenarioFormatError(f"{source}: observations: expected a list of strings")
    observations: list[str] = doc["observations"]

    if not isinstance(doc["likelihood"], list):
        raise ScenarioFormatError(f"{source}: likelihood: expected a list of rows")
    rows: list[list[Probability]] = []
    for i, row in enumerate(doc["likelihood"]):
        if not isinstance(row, list):
            raise ScenarioFormatError(f"{source}: likelihood[{i}]: expected a list")
        rows.append(
            [_parse_prob(v, f"{source}: likelihood[{i}][{j}]") for j, v in enumerate(row)]
        )

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ScenarioFormatError(f"{source}: metadata: expected an object")

    return Scenario(
        name=doc["name"],
        model_space=ModelSpace(prior=Distribution(model_labels, priors)),
        observation_model=ObservationModel(
            observation_labels=observations, model_labels=model_labels, likelihood=rows
        ),
        metadata=metadata,
    )


def save_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(scenario_to_json_text(s), encoding="utf-8")


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"{p}: cannot read scenario file: {exc}") from exc
    return scenario_from_json_text(text, source=str(p))

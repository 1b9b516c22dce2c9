"""Seeded inputs and operation sequences for the three benchmark workloads.

A workload is a function that builds one pass: a fixed mix of ``write``,
``solve`` and ``verify`` operations. Runs always complete whole passes,
so the mix behind every percentile is the same from run to run. Each
pass draws fresh seeded inputs, so a program that memoised results
across calls would gain nothing here that a user would not see. Each
pass writes its scenarios to file names of its own, which the runner
creates empty before the pass: on this kind of host, creating a file
(and rewriting a non-empty one, which ext4 flushes on close) costs a
wait that follows the shared disk's load, not the program, and varied
by 3-6x between runs, while writing into an empty file tracks CPU speed.

Every game carries the exact prior and likelihood matrix the benchmark
expects, worked out here without calling the program, so the
correctness gate can check what the program wrote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

# custom-N sizes of the mhp-ladder workload. The project roadmap names
# N in {3, 10, 20, 40, 80, 160}; sizes above 16 are left out so that the
# 100 verifies a p90 needs fit in one run, and the run header lists them
# with the reason. A forgetful-host game costs about what a standard one
# ~1.17x its size costs, so with these sizes the median and the p90 fall
# among games of similar cost (7 doors forgetful with 8 standard, 14
# forgetful with 16 standard) rather than on a jump between two cost
# levels, where they would flip from run to run.
LADDER = (3, 4, 5, 6, 7, 8, 10, 12, 14, 16)
OMITTED_SIZES = {
    20: "a pass would take ~1.6x longer and a run ~45 s; cost from 3 to 16 doors already gives the exponent",
    40: "one forgetful-host verify takes ~6 s with the current engine",
    80: "one standard-host MI takes ~4.8 s with the current engine (forgetful host ~12 s)",
    160: "MI cost grows as ~N^3 with the current engine, so one solve would take about a minute",
}
HOSTS = ("standard", "forgetful")
LADDER_SOLVES = 2  # observations solved per ladder game
FORMATS = ("table", "json", "csv")
PRESETS = ("traditional", "biased", "forgetful")
# random-sweep bounds, as in scripts/random_agreement_sweep.py.
SWEEP_MAX_MODELS = 8
SWEEP_MAX_OBSERVATIONS = 8


@dataclass
class Game:
    """One scenario: its file, the exact content expected in it, and the oracle."""

    name: str
    path: Path
    models: tuple[str, ...]
    observations: tuple[str, ...]
    prior: tuple[Fraction, ...]
    likelihood: tuple[tuple[Fraction, ...], ...]  # rows are observations
    mhp: dict[str, Any] | None = None  # door_count, policy and prior, for replay
    oracle: Any = None  # set by the gate once the write is checked

    @property
    def cells(self) -> int:
        return len(self.models) * len(self.observations)

    def evidence(self, row: int) -> Fraction:
        return sum((lik * p for lik, p in zip(self.likelihood[row], self.prior)), Fraction(0))

    @property
    def possible(self) -> list[str]:
        return [x for i, x in enumerate(self.observations) if self.evidence(i) != 0]

    @property
    def max_denominator_bits(self) -> int:
        values = list(self.prior) + [p for row in self.likelihood for p in row]
        return max(p.denominator.bit_length() for p in values)


@dataclass
class Op:
    """One timed call. ``argv`` is None for a library-level write."""

    kind: str  # "write", "solve" or "verify"
    game: Game
    argv: list[str] | None = None
    observation: str | None = None
    fmt: str | None = None
    result: dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        extra = f" {self.observation} {self.fmt}" if self.kind == "solve" else ""
        return f"{self.kind} {self.game.name}{extra}"


def door_names(n: int) -> tuple[str, ...]:
    return ("A", "B", "C") + tuple(f"D{i}" for i in range(4, n + 1))


def mhp_game(name: str, path: Path, n: int, policy: str,
             prior: tuple[Fraction, ...] | None, pick: str = "A") -> Game:
    """Expected Monty Hall scenario: doors are models, host actions observations."""
    doors = door_names(n)
    opened = [d for d in doors if d != pick]
    observations = [f"Monty_{d}" for d in opened]
    if policy == "standard":
        rows = [
            tuple(Fraction(0) if t == d else Fraction(1, n - 1) if t == pick else Fraction(1, n - 2)
                  for t in doors)
            for d in opened
        ]
    else:
        observations += [f"Monty_{d}_car" for d in opened]
        rows = [tuple(Fraction(0) if t == d else Fraction(1, n - 1) for t in doors) for d in opened]
        rows += [tuple(Fraction(1, n - 1) if t == d else Fraction(0) for t in doors) for d in opened]
    game = Game(name, path, doors, tuple(observations),
                prior or tuple(Fraction(1, n) for _ in doors), tuple(rows))
    game.mhp = {"door_count": n, "policy": policy, "prior": prior}
    return game


def wide_prior(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Positive prior with ~36-bit denominators, far wider than 1/N."""
    weights = [rng.randint(1, 2**32) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def solve_op(game: Game, x: str, fmt: str) -> Op:
    return Op("solve", game, ["solve", str(game.path), "--observe", x, "--format", fmt], x, fmt)


def verify_op(game: Game) -> Op:
    return Op("verify", game, ["verify", str(game.path)])


def mhp_ladder_pass(rng: random.Random, workdir: Path, pass_no: int) -> list[Op]:
    """custom-N games on both hosts, one uniform and one wide prior per N."""
    ops: list[Op] = []
    for n in LADDER:
        for policy in HOSTS:
            for prior in (None, wide_prior(rng, n)):
                kind = "uniform" if prior is None else "wide"
                game = mhp_game(f"custom-{n}/{policy}/{kind}",
                                workdir / f"ladder-{pass_no}-{n}-{policy}-{kind}.json", n, policy, prior)
                argv = ["mhp", f"custom-{n}", "--policy", policy, "--out", str(game.path)]
                if prior is not None:
                    argv += ["--prior", ",".join(f"{p.numerator}/{p.denominator}" for p in prior)]
                ops.append(Op("write", game, argv))
                for x in rng.sample(game.observations, min(LADDER_SOLVES, len(game.observations))):
                    ops.append(solve_op(game, x, FORMATS[(len(ops) + pass_no) % len(FORMATS)]))
                ops.append(verify_op(game))
    return ops


def random_distribution(rng: random.Random, size: int) -> list[Fraction]:
    # Same distribution as scripts/random_agreement_sweep.py: small integer
    # weights with ~15% zeros, so refuted and zero-prior models occur.
    weights = [0 if rng.random() < 0.15 else rng.randint(1, 12) for _ in range(size)]
    if sum(weights) == 0:
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_sweep_pass(rng: random.Random, workdir: Path, pass_no: int) -> list[Op]:
    """Random exact scenarios: one library write, every possible solve, one verify.

    A pass holds every (models, observations) size once, in seeded order:
    the sizes are those of the uniform draw in the sweep script, but
    stratified, so the seed picks contents and order, not the size mix
    that the percentiles and rates are taken over.
    """
    sizes = [(m, o) for m in range(1, SWEEP_MAX_MODELS + 1) for o in range(1, SWEEP_MAX_OBSERVATIONS + 1)]
    rng.shuffle(sizes)
    ops: list[Op] = []
    for i, (n_models, n_obs) in enumerate(sizes):
        prior = random_distribution(rng, n_models)
        columns = [random_distribution(rng, n_obs) for _ in range(n_models)]
        game = Game(
            f"random#{pass_no}.{i}-{n_models}x{n_obs}",
            workdir / f"sweep-{pass_no}-{i}.json",
            tuple(f"M{j}" for j in range(n_models)),
            tuple(f"x{j}" for j in range(n_obs)),
            tuple(prior),
            tuple(tuple(columns[j][r] for j in range(n_models)) for r in range(n_obs)),
        )
        ops.append(Op("write", game))
        for x in game.possible:
            ops.append(solve_op(game, x, FORMATS[(len(ops) + pass_no) % len(FORMATS)]))
        ops.append(verify_op(game))
    return ops


def preset_game(preset: str, path: Path) -> Game:
    prior = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)) if preset == "biased" else None
    policy = "forgetful" if preset == "forgetful" else "standard"
    return mhp_game(preset, path, 3, policy, prior)


def cli_presets_pass(rng: random.Random, workdir: Path, pass_no: int) -> list[Op]:
    """Each preset: one write, one solve and one verify, each in a new interpreter.

    The solve format rotates with the pass, so every preset is solved in
    all three formats over any three passes in a row. Write, solve and
    verify stay 1:1:1, the fewest calls that give each its p90 sample.
    """
    ops: list[Op] = []
    for i, preset in enumerate(PRESETS):
        game = preset_game(preset, workdir / f"preset-{pass_no}-{preset}.json")
        ops.append(Op("write", game, ["mhp", preset, "--out", str(game.path)]))
        ops.append(solve_op(game, rng.choice(game.observations), FORMATS[(pass_no + i) % len(FORMATS)]))
        ops.append(verify_op(game))
    return ops

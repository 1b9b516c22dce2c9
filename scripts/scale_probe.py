"""Scale probe: wall time and peak memory of large Monty Hall games, one subprocess per command.

For each host policy and each door count N, the probe writes the
``custom-N`` game with ``bayesbits mhp --out`` and runs ``solve``, ``mi``
and ``verify`` on that file. Each command is its own subprocess of this
interpreter, with the checkout's ``src/`` on the path, and runs
``--repeat`` times. The probe keeps the best wall time and the peak
resident set of that same child, read from its own rusage by
``os.wait4`` (``RUSAGE_CHILDREN`` would give the peak over every child so
far). It also records the interpreter and the host. It changes no machine
setting: it drops no cache, sets no CPU governor and pins no process.

The default sizes take some minutes, and are not part of the test suite:

    python3 scripts/scale_probe.py
    python3 scripts/scale_probe.py --doors 40 80 --repeat 5 --json scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bayesbits.scenario import MAX_DOORS
from random_agreement_sweep import positive_int

ROOT = Path(__file__).resolve().parent.parent
SIZES = (40, 80, 160, 320, 640, 1000)
POLICIES = ("standard", "forgetful")
COMMANDS = ("mhp", "solve", "mi", "verify")
MACHINE_SETTINGS = "unchanged: no cache dropped, no CPU governor set, no process pinned"


def _door_count(text: str) -> int:
    value = int(text)
    if not 3 <= value <= MAX_DOORS:
        raise argparse.ArgumentTypeError(f"must be from 3 to {MAX_DOORS}")
    return value


def run_once(argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MiB of one ``bayesbits`` subprocess run with ``argv``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "-m", "bayesbits.cli", *argv]
    start = time.perf_counter()
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode:
        raise RuntimeError(f"bayesbits {' '.join(argv)} exited {child.returncode}")
    return seconds, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def best_of(argv: list[str], repeat: int) -> dict[str, float]:
    """The best wall time of ``repeat`` runs of ``argv``, and that run's peak RSS."""
    seconds, mib = min(run_once(argv) for _ in range(repeat))
    return {"best_s": seconds, "peak_rss_mib": mib}


def probe_game(policy: str, doors: int, repeat: int, tmp: Path) -> dict:
    path = str(tmp / f"{policy}-{doors}.json")
    argvs = {
        "mhp": ["mhp", f"custom-{doors}", "--policy", policy, "--out", path],
        "solve": ["solve", path, "--observe", "Monty_B"],
        "mi": ["mi", path],
        "verify": ["verify", path],
    }
    commands = {name: best_of(argvs[name], repeat) for name in COMMANDS}  # mhp writes first
    observations = doors - 1 if policy == "standard" else 2 * (doors - 1)
    return {"policy": policy, "doors": doors, "cells": observations * doors,
            "file_bytes": os.path.getsize(path), "commands": commands}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--doors", nargs="+", type=_door_count, default=list(SIZES),
                        help="door counts N of the custom-N games (default: %(default)s)")
    parser.add_argument("--repeat", type=positive_int, default=3,
                        help="runs of each command, of which the best is kept (default: 3)")
    parser.add_argument("--json", metavar="PATH", type=Path,
                        help="also write every figure, the interpreter and the host here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        games = [probe_game(policy, doors, args.repeat, Path(tmp))
                 for policy in POLICIES for doors in args.doors]
    header = ["policy", "doors", "cells", *(f"{c} s / MiB" for c in COMMANDS)]
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for game in games:
        figures = [f"{m['best_s']:.3f} / {m['peak_rss_mib']:.1f}"
                   for m in game["commands"].values()]
        row = [game["policy"], str(game["doors"]), str(game["cells"]), *figures]
        print("| " + " | ".join(row) + " |")
    if args.json:
        document = {
            "probe": "scale",
            "repeat": args.repeat,
            "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
            "host": {"platform": platform.platform(), "nproc": os.cpu_count()},
            "machine_settings": MACHINE_SETTINGS,
            "games": games,
        }
        args.json.write_text(json.dumps(document, indent=2) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

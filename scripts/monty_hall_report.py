#!/usr/bin/env python3
"""Print the full information-transfer story for the Monty Hall family.

Walks the three classic variants (traditional, biased prior, forgetful
host), prints the per-observation transfer reports, and closes each
variant with an engine-vs-oracle agreement line. Everything is exact
rationals underneath, so the output is reproducible bit for bit.

Usage:
    python3 scripts/monty_hall_report.py [--precision N]
"""

from __future__ import annotations

import argparse
import sys

from bayesbits import evidence
from bayesbits.report import MAX_PRECISION, build_report, render_table
from bayesbits.scenario import MHP_PRESETS, mhp_preset
from bayesbits.verify import verify_scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precision", type=int, choices=range(MAX_PRECISION + 1), default=6,
                        metavar="PRECISION", help=f"decimal places (0 to {MAX_PRECISION})")
    args = parser.parse_args(argv)

    for scenario in map(mhp_preset, MHP_PRESETS):
        banner = "=" * 72
        print(banner)
        print(scenario.name)
        print(banner)
        ms, om = scenario.model_space, scenario.observation_model
        for x in om.observation_labels:
            if evidence(ms, om, x) == 0:
                continue
            print()
            print(render_table(build_report(scenario, x), args.precision), end="")
        max_dev, checks, _ = verify_scenario(scenario)
        print()
        print(
            f"oracle agreement: {checks} comparisons, "
            f"max deviation {max_dev:.3e} bits"
        )
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

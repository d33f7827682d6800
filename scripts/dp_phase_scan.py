#!/usr/bin/env python3
"""Survival phase portrait of the contact process on flipping edges.

Writes the CSV + manifest through the batch runner so the scan is fully
reproducible from the manifest seed.
"""

import json
import sys

from contactenv import cli

CONFIG = {
    "subcommand": "phase-scan",
    "seed": 2024,
    "d": 1,
    "L": 60,
    "axis1": ["lambda", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]],
    "axis2": ["beta", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]],
    "fixed": {"alpha": 1.0, "r": 1.0},
    "T": 30.0,
    "reps": 200,
    # phase-scan spends max_events over the whole scan: 8 columns of 200
    # replicas of (4*2*120 + 121 + 4*120) * 30 = 46,830 events is 74,928,000
    "max_events": 75_000_000,
    "out_dir": "out/phase_scan",
}


if __name__ == "__main__":
    sys.exit(cli.main(["--config", json.dumps(CONFIG)] + sys.argv[1:]))

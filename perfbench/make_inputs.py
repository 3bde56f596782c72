"""Write a workload's input files from its seed.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python perfbench/make_inputs.py <workload> <seed> <output-dir>

Files are written with ``sibsonmi.cli.save_joint``, so the program under
test receives only these JSON files.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import INPUTS  # noqa: E402

from sibsonmi.cli import save_joint  # noqa: E402
from sibsonmi.instances import random_joint3, reference_joint  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    rng = np.random.default_rng(seed)
    for stem, shape in INPUTS[workload].items():
        joint = reference_joint() if shape is None else random_joint3(rng, shape)
        save_joint(joint, os.path.join(out_dir, f"{stem}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

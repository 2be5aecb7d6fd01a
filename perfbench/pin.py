"""Pin the correctness gate's expected outputs for a range of seeds.

    python3 perfbench/pin.py --seeds 0-40

Builds each seed's inputs for both shapes, as ``run.py`` does, and
records the outputs of the seed's reference fit, evaluation and
never-retrain monitor in ``perfbench/expected.json``, next to the
dataset fingerprint they belong to. Every later run of a pinned seed is
checked against that file, not against outputs of the code it measures.
Re-pin only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from inputs import SHAPES
from run import EXPECTED, ensure_inputs, source_hash

PINNED_KEYS = ("dataset_fingerprint", "train", "alarms", "summary", "quality",
               "n_readings")


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range, e.g. 0-40")
    args = parser.parse_args(argv)

    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    code = source_hash()
    for seed in args.seeds:
        for shape in sorted(SHAPES):
            inputs = ensure_inputs(shape, seed, code)
            reference = json.loads((inputs / "reference.json").read_text())
            pinned.setdefault(shape, {})[str(seed)] = {
                key: reference[key] for key in PINNED_KEYS if key in reference
            }
        EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"pinned seed {seed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

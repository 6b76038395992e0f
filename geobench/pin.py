"""Rewrite pins.json with the sha256 of each workload's synth output.

    PYTHONPATH=src python3 geobench/pin.py

Only a change that alters synth's byte stream or a workload's synth
parameters on purpose re-pins; it is then a benchmark change, and
numbers from before it are not comparable with numbers after it.
"""

import json
import tempfile
from pathlib import Path

from geoineq.synth import write_city

from workloads import PINS_PATH, WORKLOADS, synth_digest

if __name__ == "__main__":
    pins = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for name, w in WORKLOADS.items():
            pins[name] = synth_digest(write_city(w.synth, Path(tmp) / name))
    PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")
    print(PINS_PATH.read_text(), end="")

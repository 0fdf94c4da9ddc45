"""Time one workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload>

Imports ``moyal`` and ``moyal.cli`` from ``src/`` and builds the workload's
fixed inputs, then prints two numbers: the seconds the imports took and the
seconds imports and build took together.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import fixed  # noqa: E402  (imports nothing from moyal at load time)

start = time.perf_counter()
import moyal  # noqa: E402
import moyal.cli  # noqa: E402, F401

imported = time.perf_counter()
fixed.build(sys.argv[1])
done = time.perf_counter()
if Path(moyal.__file__).resolve().parent.parent != SRC:
    sys.exit(f"setup_probe: imported moyal from {moyal.__file__}, not from {SRC}")
print(f"{imported - start!r} {done - start!r}")

"""Set-up probe: import dnflow and write a workload's configs, then exit.

    python3 perfbench/probe.py <workload> <seed> <dir>

It prints ``time.monotonic()`` once the configs are written; run.py
subtracts the time it spawned the process, so set-up time covers
interpreter start, ``import dnflow.cli`` and config generation, as a
user's first command pays them.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dnflow.cli  # noqa: E402,F401
from cases import write_configs  # noqa: E402

if __name__ == "__main__":
    workload, seed, out = sys.argv[1:]
    write_configs(workload, int(seed), Path(out))
    print(time.monotonic())

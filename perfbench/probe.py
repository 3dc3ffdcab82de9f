"""Speed probe: time a fixed piece of pure-Python work, again and again, until SIGTERM.

run.py starts it once per run, on the one CPU that every pass runs on:

    python3 perfbench/probe.py --out PROBE.json

Every PERIOD_S it runs ``loop`` once and records when it started and the CPU
seconds it took.  On SIGTERM, or once its parent is gone, it writes
``[[start, cpu_s], ...]`` to ``--out`` and exits.  The loop's rate follows the speed of the CPU that the pass sees
at the same moment; run.py uses it to rescale the pass's times (see
``stats.rescaled``).  The probe takes about 3% of that CPU.

The loop builds small dicts and looks up and compares short strings, like
the library's pure-Python set-up (charge terms, covers).  On the 2-vCPU host
the benchmark was tuned on, its rate moved with the passes' speed one for
one, where a bare arithmetic loop moved about half as much and a numpy loop
hardly at all.  It uses nothing from trotterchain, so a change to the
library cannot change the probe.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time

PERIOD_S = 0.02
CHUNK = 200  # words per loop
_rng = random.Random(0)
WORDS = ["".join(_rng.choice("IXYZ") for _ in range(12)) for _ in range(4000)]
INDEX = {word: i for i, word in enumerate(WORDS)}


def loop(offset: int) -> int:
    total = 0
    for word in WORDS[offset : offset + CHUNK]:
        letters = {j: ch for j, ch in enumerate(word) if ch != "I"}
        total += sum(1 for j, ch in letters.items() if WORDS[j][j] == ch) + INDEX[word]
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    parent = os.getppid()
    samples = []
    while not stop and os.getppid() == parent:
        offset = len(samples) * CHUNK % (len(WORDS) - CHUNK)
        start, cpu = time.monotonic(), time.thread_time()
        loop(offset)
        samples.append((start, time.thread_time() - cpu))
        time.sleep(PERIOD_S)
    with open(args.out, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Cold time and peak resident memory of the charge generator.

    python tests/charge_memory.py [ORDER ...]

For each order k (default 5 6 7) prints one row for ``window_density(k,
"plus")`` and one for ``periodic_density(ChargeSpec(k, "plus", N))`` with
N = max(16, 2k + 2): the number of terms, the cold seconds of the call and
the process's ``ru_maxrss`` after it, with the ``ru_maxrss`` after the imports
in brackets.  Each row runs in a fresh Python process, so no memo and no heap
of an earlier row is counted.  Pin it to one CPU (``taskset -c 1``) for
steadier seconds.  pytest does not collect this file; it imports the
``trotterchain`` next to it, from ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

_ROW = """
import resource, sys, time
from trotterchain.charges import ChargeSpec, periodic_density, window_density
order, n = int(sys.argv[1]), int(sys.argv[2])
imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
start = time.perf_counter()
q = periodic_density(ChargeSpec(order, "plus", n)) if n else window_density(order, "plus")
seconds = time.perf_counter() - start
print(len(q), seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, imported)
"""


def measure(order: int, n_sites: int) -> tuple:
    """``(terms, seconds, maxrss MB, import maxrss MB)`` of one cold call in
    a fresh process; ``n_sites`` 0 means the window density."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _ROW, str(order), str(n_sites)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    return int(out[0]), *map(float, out[1:])


def main(argv) -> None:
    orders = [int(a) for a in argv] or [5, 6, 7]
    print(f"{'call':<38} {'terms':>10} {'cold s':>8} {'maxrss MB':>10} {'(import)':>9}")
    for order in orders:
        n = max(16, 2 * order + 2)
        for name, n_sites in ((f'window_density({order}, "plus")', 0),
                              (f'periodic_density(Q{order}+, N={n})', n)):
            terms, seconds, peak, imported = measure(order, n_sites)
            print(f"{name:<38} {terms:>10,} {seconds:>8.2f} {peak:>10.1f} ({imported:>6.1f})")


if __name__ == "__main__":
    main(sys.argv[1:])

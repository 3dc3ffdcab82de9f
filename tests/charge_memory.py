"""Cold time and memory of the charge generator.

    python tests/charge_memory.py [ORDER ...]

For each order k (default 5 6 7) prints one row for the boost alone,
``_window_orbits(k, "plus")`` (its letter-orbit representatives, counted as
terms), one for ``window_density(k, "plus")`` and one for
``periodic_density(ChargeSpec(k, "plus", N))`` with N = max(16, 2k + 2): the
number of terms, the cold seconds of the call, the process's ``ru_maxrss``
after it, its resident memory after it (``/proc/self/statm``, so Linux only)
and, in brackets, the ``ru_maxrss`` after the imports.  Each row runs in a
fresh Python process, so no memo and no heap of an earlier row is counted.
Pin it to one CPU (``taskset -c 1``) for steadier seconds.  pytest does not
collect this file; it imports the ``trotterchain`` next to it, from ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

_ROW = """
import os, resource, sys, time
from trotterchain.charges import ChargeSpec, _window_orbits, periodic_density, window_density
call, order, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
start = time.perf_counter()
if call == "orbits":
    terms = len(_window_orbits(order, "plus")[0])
elif call == "window":
    terms = len(window_density(order, "plus"))
else:
    terms = len(periodic_density(ChargeSpec(order, "plus", n)))
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
with open("/proc/self/statm") as statm:
    resident = int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
print(terms, seconds, peak, resident, imported)
"""


def measure(call: str, order: int, n_sites: int) -> tuple:
    """``(terms, seconds, maxrss MB, resident MB, import maxrss MB)`` of one
    cold call in a fresh process; ``call`` is ``"orbits"``, ``"window"`` or
    ``"periodic"``, whose chain has ``n_sites`` sites."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _ROW, call, str(order), str(n_sites)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    return int(out[0]), *map(float, out[1:])


def main(argv) -> None:
    orders = [int(a) for a in argv] or [5, 6, 7]
    print(
        f"{'call':<38} {'terms':>10} {'cold s':>8} {'maxrss MB':>10} {'resident MB':>12}"
        f" {'(import)':>9}"
    )
    for order in orders:
        n = max(16, 2 * order + 2)
        for name, call in (
            (f'_window_orbits({order}, "plus")', "orbits"),
            (f'window_density({order}, "plus")', "window"),
            (f"periodic_density(Q{order}+, N={n})", "periodic"),
        ):
            terms, seconds, peak, resident, imported = measure(call, order, n)
            print(
                f"{name:<38} {terms:>10,} {seconds:>8.2f} {peak:>10.1f} {resident:>12.1f}"
                f" ({imported:>6.1f})"
            )


if __name__ == "__main__":
    main(sys.argv[1:])

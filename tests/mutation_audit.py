"""Mutation audit: plant one known defect at a time and list the tests that catch it.

Each mutant in ``MUTANTS`` is one exact-string edit of one file; the old
string must occur exactly once there, or the audit stops before running
anything.  For each mutant the tree (``src``, ``tests``, ``demos``,
``perfbench`` and ``pyproject.toml``) is copied to a temporary directory,
the edit applied and the Tier-1 suite run on the copy, one run at a time.
The unmutated copy runs first, and a test that already fails there is not
counted as catching anything.

A mutant that no test catches is reported as SURVIVED.  A run that times
out (``TIMEOUT_S``) or ends abnormally with no failing test is reported as
"no test result".  A mutant caught only by tests that compare a pinned
digest (``*_pinned_digest``, ``*_pinned_artifacts``) is flagged "digest
only": a re-pin of that digest would let it through.

    python tests/mutation_audit.py            # every mutant
    python tests/mutation_audit.py NAME ...   # the named ones

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml")
TIMEOUT_S = 1800
DIGEST_TEST = re.compile(r"pinned_digest|pinned_artifacts")

# name -> (file, old, new)
MUTANTS = {
    # the sampled estimator and its shots
    "cross-sum-or": (
        "src/trotterchain/measure.py",
        "walsh[word, masks[a] ^ masks[b]]",
        "walsh[word, masks[a] | masks[b]]",
    ),
    "sum-b-from-first": (
        "src/trotterchain/measure.py",
        "sums[first], sums[second]",
        "sums[first], sums[first]",
    ),
    "pairs-without-diagonal": (
        "src/trotterchain/measure.py",
        "    live = n_ab > 1\n",
        "    live = (n_ab > 1) & (a != b)\n",
    ),
    "n-ab-from-one-word": (
        "src/trotterchain/measure.py",
        "    a, b = np.divmod(keys, n_terms)\n",
        "    a, b = np.divmod(keys, n_terms)\n"
        "    n_ab = n_w[word][np.unique(inv, return_index=True)[1]].astype(float)\n",
    ),
    "no-rekey": (
        "src/trotterchain/sim.py",
        '        fresh["state"]["key"] = _philox_key(seed, word_index)\n',
        "",
    ),
    "rekey-keeps-spent-counter": (
        "src/trotterchain/sim.py",
        '        fresh["state"]["key"] = _philox_key(seed, word_index)\n        bits.state = fresh\n',
        "        spent = bits.state\n"
        '        spent["state"]["key"] = _philox_key(seed, word_index)\n'
        "        bits.state = spent\n",
    ),
    "list-built-key": (
        "src/trotterchain/sim.py",
        "return np.array([seed & 0xFFFFFFFFFFFFFFFF, word_index << 20], dtype=np.uint64)",
        "return [seed, word_index << 20]",
    ),
    "philox-word-index-off-by-one": (
        "src/trotterchain/sim.py",
        "seed & 0xFFFFFFFFFFFFFFFF, word_index << 20]",
        "seed & 0xFFFFFFFFFFFFFFFF, (word_index + 1) << 20]",
    ),
    "diagnostics-not-printed": (
        "src/trotterchain/cli.py",
        "                print(line, file=sys.stderr)\n",
        "                pass\n",
    ),
    # the word cover
    "cover-highest-clear-bit": (
        "src/trotterchain/measure.py",
        "        free = ~hit & (hit + 1)",
        "        free = 1 << max(\n"
        "            (k for k in range(len(wx)) if not hit >> k & 1), default=len(wx)\n"
        "        )",
    ),
    "cover-one-rival-slot": (
        "src/trotterchain/measure.py",
        "            clash[b] |= free\n",
        "",
    ),
    "cover-no-z-completion": (
        "src/trotterchain/measure.py",
        "    wz |= ((1 << n) - 1) & ~(wx | wz)\n",
        "",
    ),
    # exact estimator moments and the shot-count checks
    "variance-without-mean-square": (
        "src/trotterchain/measure.py",
        "(e2 - e * e).sum(axis=1)",
        "e2.sum(axis=1)",
    ),
    "c-p-not-over-n-p": (
        "src/trotterchain/measure.py",
        "(charge.coefficients(delta) / n_p)[term]",
        "charge.coefficients(delta)[term]",
    ),
    "mean-without-n-w": (
        "src/trotterchain/measure.py",
        "mean, var = n_w * e.sum(axis=1),",
        "mean, var = e.sum(axis=1),",
    ),
    "second-moment-of-weighted": (
        "src/trotterchain/measure.py",
        "(weighted * one_shot).sum(axis=-1)",
        "(weighted * weighted).sum(axis=-1)",
    ),
    "plan-check-without-integrality": (
        "src/trotterchain/measure.py",
        "        if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:",
        "        if n < 1:",
    ),
    "plan-check-without-positivity": (
        "src/trotterchain/measure.py",
        "        if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:",
        "        if not isinstance(n, Integral) or isinstance(n, bool):",
    ),
    "negative-count-check-dropped": (
        "src/trotterchain/measure.py",
        "    if negative.any():\n",
        "    if False:\n",
    ),
    "sample-check-without-integrality": (
        "src/trotterchain/sim.py",
        "if not isinstance(n, Integral) or isinstance(n, bool) or n < 1]",
        "if n < 1]",
    ),
    "sample-check-without-positivity": (
        "src/trotterchain/sim.py",
        "if not isinstance(n, Integral) or isinstance(n, bool) or n < 1]",
        "if not isinstance(n, Integral) or isinstance(n, bool)]",
    ),
    # read-out, the exact charges, mitigation and the run record
    "readout-basis-not-transposed": (
        "src/trotterchain/sim.py",
        "_apply_block(amp, n, _BASIS[letter].T, [k])",
        "_apply_block(amp, n, _BASIS[letter], [k])",
    ),
    "readout-sites-reversed": (
        "src/trotterchain/sim.py",
        "_apply_block(amp, n, _BASIS[letter].T, [k])",
        "_apply_block(amp, n, _BASIS[letter].T, [n - 1 - k])",
    ),
    "order1-coefficient-off-by-one": (
        "src/trotterchain/charges.py",
        "(1, 2, (1, 3)))",
        "(2, 2, (1, 3)))",
    ),
    "minus-sign-dropped": (
        "src/trotterchain/charges.py",
        'c if variant == "plus" else c * (-1) ** m',
        "c",
    ),
    "unfold-rows-never-frozen": (
        "src/trotterchain/mitigate.py",
        "live = live[np.abs(nxt - old).max(axis=1) >= CORRECT_TOL]",
        "live = live[np.abs(nxt - old).max(axis=1) >= 0.0]",
    ),
    "unfold-rows-always-frozen": (
        "src/trotterchain/mitigate.py",
        "live = live[np.abs(nxt - old).max(axis=1) >= CORRECT_TOL]",
        "live = live[np.abs(nxt - old).max(axis=1) < 0.0]",
    ),
    "unfold-a-f-for-a-t-f": (
        "src/trotterchain/mitigate.py",
        "    atf = rows @ a  #",
        "    atf = rows @ a.T  #",
    ),
    "unfold-one-total-for-all-rows": (
        "src/trotterchain/mitigate.py",
        "    total = rows.sum(axis=1, keepdims=True)\n",
        "    total = rows.sum()\n",
    ),
    "unfold-step-from-smallest-eigenvalue": (
        "src/trotterchain/mitigate.py",
        "    step = 1.0 / float(eigs.max())\n",
        "    step = 1.0 / float(eigs.min())\n",
    ),
    "unfold-singular-check-at-zero": (
        "src/trotterchain/mitigate.py",
        "    if eigs.min() < 1e-12:\n",
        "    if eigs.min() < 0.0:\n",
    ),
    "benchmarks-record-unstamped": (
        "src/trotterchain/cli.py",
        'record = {**stamp, "charge": key, **entry["benchmark"]}',
        'record = {"charge": key, **entry["benchmark"]}',
    ),
}


def copy_tree(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def failing_tests(tree: Path) -> tuple[set, str]:
    """The ids of the tests that fail or error on ``tree``, and a status word."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return set(), "timeout"
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.M))
    return failed, "ok" if proc.returncode in (0, 1) else f"exit {proc.returncode}"


def run(tree_edit) -> tuple[set, str]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if tree_edit is not None:
            path, old, new = tree_edit
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
        return failing_tests(tree)


def main(argv: list) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    for name in names:
        path, old, _ = MUTANTS[name]
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"{name}: the edit's old string occurs {count} times in {path}", file=sys.stderr)
            return 2

    start = time.monotonic()
    baseline, status = run(None)
    print(f"unmutated tree: {len(baseline)} failing, {status} ({time.monotonic() - start:.0f} s)")
    for test in sorted(baseline):
        print(f"    {test}", flush=True)
    survived, unresolved = [], []
    for name in names:
        start = time.monotonic()
        failed, status = run(MUTANTS[name])
        caught = sorted(failed - baseline)
        took = f"{time.monotonic() - start:.0f} s"
        if not caught and status == "ok":
            survived.append(name)
            print(f"{name}: SURVIVED ({took})", flush=True)
        elif not caught:
            unresolved.append(name)
            print(f"{name}: no test result, {status} ({took})", flush=True)
        else:
            flag = " [digest only]" if all(DIGEST_TEST.search(t) for t in caught) else ""
            print(f"{name}: caught by {len(caught)}{flag} ({took})")
            for test in caught:
                print(f"    {test}", flush=True)
    caught_count = len(names) - len(survived) - len(unresolved)
    print(f"{caught_count}/{len(names)} caught; survived: {survived or 'none'}; "
          f"no test result: {unresolved or 'none'}")
    return 1 if survived or unresolved else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

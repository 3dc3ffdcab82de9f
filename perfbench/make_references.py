"""Write references.json: the exact values the benchmark's checks compare with.

    python3 perfbench/make_references.py

Run it from the root of a source checkout.  It runs one pass of each workload
in this process, with an empty charge cache, and stores what the checks read
back: the exact column of the decay table, a digest of the integer window
densities Q1+..Q5+, and the exact-mode spectrum, fidelities and mitigation
rows.  None of these depend on the seed.  Regenerate only when a change is
meant to alter these numbers, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        os.environ["TROTTERCHAIN_CACHE"] = os.path.join(tmp, "cache")
        sys.path.insert(0, str(ROOT / "src"))
        from trotterchain import cli

        import workloads

        refs = {}
        for name, workload in workloads.WORKLOADS.items():
            base = os.path.join(tmp, name)
            os.makedirs(base)
            paths = {}
            for key, doc in workload.configs(0).items():
                paths[key] = os.path.join(base, f"{key}.json")
                with open(paths[key], "w") as fh:
                    json.dump(doc, fh)
            out = os.path.join(base, "out")
            os.makedirs(out)
            workload.run(cli, paths, out, {})
            refs[name] = workload.observed(out)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh process: run a workload, time it, check it.

run.py starts this file once per pass:

    python3 perfbench/worker.py --workload NAME --configs CONFIGS.json \
        --out DIR --result RESULT.json [--trace]

The parent sets PERFBENCH_LAUNCH to its ``time.monotonic()`` just before the
start, so set-up time covers interpreter start-up and the imports.  Without
``--trace`` only the engine calls record spans; with it every function in
``tracing.TRACED`` does, and the layer counters are filled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

PROBE_REPEATS = 5


class LayerProbe:
    """Counters at layer boundaries, filled by tracer hooks during the pass."""

    def __init__(self, tracer):
        self.terms = 0
        self.labels = {}  # id(charge) -> (label, charge); the charge keeps the id alive
        self.covers = []  # (label, charge, plan)
        self.step = None  # first one-step engine call: (circuit, state, noise or None)
        tracer.hooks.update(
            {
                "charges.assemble_cached": self._assembled,
                "measure.build_cover": self._covered,
                "sim.evolve_noisy": lambda args, kwargs, _: self._stepped(*args[:3]),
                "sim.evolve_pure": lambda args, kwargs, _: self._stepped(*args[:2], None),
            }
        )

    def _assembled(self, args, kwargs, charge):
        self.terms += len(charge)
        self.labels[id(charge)] = (args[0].label, charge)

    def _covered(self, args, kwargs, plan):
        charge = args[0]
        label = self.labels.get(id(charge), ("?", charge))[0]
        self.covers.append((label, charge, plan))

    def _stepped(self, circuit, state, noise):
        one_step = circuit.depth == 1 and circuit.init_end == 0
        if self.step is None and one_step and circuit.evolution_end == len(circuit.gates):
            self.step = (circuit, state, noise)

    def extras(self) -> dict:
        from trotterchain import measure, sim

        out = {"charges.terms": self.terms}
        if self.step is not None:
            circuit, state, noise = self.step
            out["circuit.gates_per_step"] = len(circuit.gates)
            out["circuit.cnots_per_step"] = circuit.cnot_count()
            if noise is not None:
                out["noise.channel_applications_per_step"] = sum(
                    (2 if noise.after_two_qubit is not None else 0)
                    if g.kind == "CNOT"
                    else (1 if noise.after_one_qubit is not None else 0)
                    for g in circuit.gates
                )
                out["noise.channel_s_per_step"] = _channel_probe(sim, circuit, state, noise)
        contained = 0
        for label, charge, plan in self.covers:
            out["measure.cover_words." + label.replace("+", "plus").replace("-", "minus")] = len(
                plan.words
            )
            contained += sum(measure.contains(w, t) for w in plan.words for t in charge.terms)
        if self.covers:
            out["measure.cover_redundancy"] = contained / sum(len(c) for _, c, _ in self.covers)
        return out


def _channel_probe(sim, circuit, state, noise) -> float:
    """Median time of one noisy step minus the same step with sim.IDEAL."""
    noisy, ideal = [], []
    for _ in range(PROBE_REPEATS):
        for model, times in ((noise, noisy), (sim.IDEAL, ideal)):
            start = time.monotonic()
            sim.evolve_noisy(circuit, state, model)
            times.append(time.monotonic() - start)
    return statistics.median(noisy) - statistics.median(ideal)


def _digests(out: str) -> dict:
    digests = {}
    for folder, _, files in os.walk(out):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--configs", required=True, help="JSON map: config name -> path")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    launch = float(os.environ["PERFBENCH_LAUNCH"])

    import trotterchain
    from trotterchain import cli

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    with open(args.configs) as fh:
        configs = json.load(fh)
    os.makedirs(args.out, exist_ok=True)

    patches = tracing.Patches()
    recorder = tracing.Tracer()
    recorder.install(patches, None if args.trace else tracing.ENGINES)
    probe = LayerProbe(recorder) if args.trace else None
    verbs: dict = {}
    error = None
    try:
        workload.run(cli, configs, args.out, verbs)
    except Exception:  # the pass is reported as failed, with its traceback
        error = traceback.format_exc()
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    patches.restore()

    starts = recorder.engine_starts()
    result = {
        "workload": workload.name,
        "library": os.path.dirname(trotterchain.__file__),
        "error": error,
        "wall_s": end - launch,
        "setup_s": starts[0] - launch if starts else None,
        "compute_s": end - starts[0] if starts else None,
        "peak_rss_mb": peak_rss_mb,
        "verb_s": {name: stop - start for name, (start, stop) in verbs.items()},
        "depth_s": [],
        "sigma_rel": [],
        "checks": [],
        "env": _environment(),
    }
    if error is None:
        if workload.depth_verb is not None:
            marks = starts + [verbs[workload.depth_verb][1]]
            result["depth_s"] = [b - a for a, b in zip(marks, marks[1:])]
        try:
            refs = workloads.load_references()[workload.name]
            result["checks"] = [list(c) for c in workload.check(configs, args.out, refs)]
            if workload.sigma_rel is not None:
                result["sigma_rel"] = workload.sigma_rel(args.out)
        except Exception:  # a check that cannot run is a failed check
            result["checks"].append(["checks ran", False, traceback.format_exc()])
    result["artifacts"] = _digests(args.out)
    if args.trace:
        result["spans"] = recorder.summary()
        result["layers"] = probe.extras() if error is None else {}
        spans_path = os.path.join(os.path.dirname(args.result), "spans.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": recorder.spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

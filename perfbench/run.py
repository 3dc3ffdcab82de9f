"""Run one trotterchain benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decay-sampled --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/`` and nothing needs building.  Every pass is a fresh worker process
(``worker.py``) with an empty TROTTERCHAIN_CACHE and one BLAS/OpenMP thread,
so no cache from an earlier run is read.  Untraced, passes repeat while the
next one is expected to end within ``--seconds`` (at least one); with
``--trace 1`` the run makes one untraced and one traced pass with the same
seed.  Two passes with the same seed must write byte-identical artifacts.

The run, its passes and a speed probe (``probe.py``) share one CPU.  The
gated times ``wall_s`` and ``setup_s`` are the measured ones restated at the
probe rate PROBE_REF_HZ, which takes out the drift of the CPU's speed; the
measured ones are printed as ``wall_raw_s`` and ``setup_raw_s``.

Records go to ``.perfbench_runs/<run>/``: ``record.json`` holds the
end-to-end results, ``trace_summary.json`` and ``spans.json`` the traced
pass.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` ones of BENCHMARK.json untraced, the ``per_layer`` ones traced.
CPU frequency is not controlled.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170  # every run must end within 180 s
BLAS_THREADS = 1
# probe loops per CPU second, about their rate in the faster spells of the
# 2-vCPU Xeon the benchmark was tuned on; rescaled times are seconds at it
PROBE_REF_HZ = 1750.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# units of the printed end-to-end quantities that BENCHMARK.json does not gate
REPORT_UNITS = {
    "failed_share": "1",
    "passes": "count",
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "compute_s": "s",
    "decay_s": "s",
    "fit_s": "s",
    "series_s": "s",
    "spectrum_s": "s",
    "tomo_s": "s",
    "mitigate_s": "s",
    "depth_s.p50": "s",
    "depth_s.tail": "s",
    "depth_s.tail_pct": "%",
    "depth_s.n": "count",
    "sigma_rel.p50": "1",
}
# per-layer counters that a workload without the layer leaves at zero
ZERO_WHEN_ABSENT = ("charges.terms", "circuit.", "noise.", "measure.cover_")


def hermetic_env(cache: Path) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("TROTTERCHAIN_", "PYTHON")) and k not in THREAD_VARS
    }
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(RUNS / "pycache")
    env["TROTTERCHAIN_CACHE"] = str(cache)
    return env


def environment(seed: int, cpu: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cpu_model": model,
        "blas_threads": BLAS_THREADS,
        "controlled": "one CPU for the run, one BLAS/OpenMP thread, "
                      "fresh process and empty cache per pass",
        "not_controlled": "CPU frequency, other load on the machine",
    }


def run_pass(name: str, configs: Path, pass_dir: Path, trace: bool, deadline: float) -> dict:
    """Start one worker, wait for it, and return its result (or the error)."""
    pass_dir.mkdir(parents=True)
    cache, result = pass_dir / "cache", pass_dir / "result.json"
    cache.mkdir()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--configs", str(configs),
        "--out", str(pass_dir / "out"),
        "--result", str(result),
    ] + (["--trace"] if trace else [])
    env = hermetic_env(cache)
    try:
        with open(pass_dir / "log.txt", "w") as log:
            launch = time.monotonic()
            env["PERFBENCH_LAUNCH"] = repr(launch)
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return {"error": f"pass exceeded the {DEADLINE_S} s deadline"}
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0 or not result.exists():
        return {"error": f"worker exited {proc.returncode}; see {pass_dir / 'log.txt'}"}
    with open(result) as fh:
        return dict(json.load(fh), launch=launch)


def collect_checks(passes: list) -> list:
    checks = []
    library = str(ROOT / "src" / "trotterchain")
    for i, p in enumerate(passes):
        checks.append((f"pass {i} completed", p.get("error") is None, p.get("error") or ""))
        if p.get("error") is None:
            checks.append((f"pass {i} imported src/trotterchain", p["library"] == library,
                           p["library"]))
            checks += [(f"pass {i}: {n}", ok, detail) for n, ok, detail in p["checks"]]
    done = [p for p in passes if p.get("error") is None]
    if len(done) >= 2:
        same = all(p["artifacts"] == done[0]["artifacts"] for p in done)
        checks.append(("same seed gives byte-identical artifacts", same,
                       f"{len(done)} passes, {len(done[0]['artifacts'])} files"))
    return checks


def end_to_end(passes: list, checks: list, samples: list) -> dict:
    """Every end-to-end quantity the run measured; medians over passes.

    ``samples`` are the speed probe's; ``wall_s`` and ``setup_s`` are the
    measured times restated at PROBE_REF_HZ, the measured ones ``*_raw_s``.
    """
    done = [p for p in passes if p.get("error") is None]
    out = {"failed_share": stats.failed_share(checks), "passes": len(done)}
    for key in ("wall_s", "setup_s"):
        raw = [(p[key], p["launch"]) for p in done if p[key] is not None]
        rescaled = [stats.rescaled(s, start, samples, PROBE_REF_HZ) for s, start in raw]
        if raw:
            out[key[:-2] + "_raw_s"] = statistics.median(s for s, _ in raw)
        if raw and None not in rescaled:
            out[key] = statistics.median(rescaled)
    for key in ("compute_s", "peak_rss_mb"):
        values = [p[key] for p in done if p[key] is not None]
        if values:
            out[key] = statistics.median(values)
    for verb in sorted({v for p in done for v in p["verb_s"]}):
        out[verb] = statistics.median(p["verb_s"][verb] for p in done)
    depths = [d for p in done for d in p["depth_s"]]
    if depths:
        out["depth_s.p50"] = statistics.median(depths)
        out["depth_s.n"] = len(depths)
        # below 20 samples no percentile has ten beyond it: the tail is undefined
        out["depth_s.tail_pct"], out["depth_s.tail"] = stats.tail(depths) or (None, None)
    sigma = done[0]["sigma_rel"] if done else []
    if sigma:
        out["sigma_rel.p50"] = statistics.median(sigma)
    return out


def layer_value(name: str, traced: dict, untraced: dict):
    """One per-layer metric of BENCHMARK.json from the traced pass."""
    spans, extras = traced["spans"], traced["layers"]
    if name == "trace.overhead_s":
        return traced["wall_s"] - untraced["wall_s"]
    if name in extras:
        return extras[name]
    if name.startswith(ZERO_WHEN_ABSENT):
        return 0
    for suffix in (".self_s", ".calls", ".call_s.p50"):
        if name.endswith(suffix):
            span = name[: -len(suffix)]
            module, _, func = span.partition(".")
            if func not in tracing.TRACED.get(module, ()):
                break
            entry = spans.get(span)
            if entry is None:
                return 0 if suffix == ".calls" else 0.0
            if suffix == ".self_s":
                return entry["self_s"]
            if suffix == ".calls":
                return entry["calls"]
            return statistics.median(entry["call_s"])
    raise KeyError(f"no per-layer metric named {name!r}")


def print_report(title: str, env: dict, report: dict, checks: list, units: dict):
    print(title)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in report.items():
        unit = units.get(name, "")
        print(f"  {name:<46} {value!r:>24} {unit}")
    failed = [c for c in checks if not c[1]]
    print(f"checks: {len(checks) - len(failed)}/{len(checks)} passed")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail.strip().splitlines()[-1] if detail.strip() else ''}")


def write_configs(workload, seed: int, run_dir: Path) -> Path:
    """The workload's generated configs as files, and a map of them for the worker."""
    paths = {}
    for name, doc in workload.configs(seed).items():
        paths[name] = str(run_dir / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    index = run_dir / "configs.json"
    index.write_text(json.dumps(paths))
    return index


def run_passes(workload, configs: Path, run_dir: Path, trace: bool, seconds: float,
               start: float) -> list:
    deadline = start + DEADLINE_S

    def one(i, traced):
        return run_pass(workload.name, configs, run_dir / f"pass{i}", traced, deadline)

    if trace:
        return [one(0, False), one(1, True)]
    passes = []
    while True:
        began = time.monotonic()
        passes.append(one(len(passes), False))
        now = time.monotonic()
        # the next pass is assumed to take as long as this one
        ends = now + (now - began)
        if passes[-1].get("error") or ends > min(deadline, start + seconds):
            return passes


def stop(proc: subprocess.Popen):
    """Ask a child to end, kill it if it does not within 10 s, and reap it."""
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind like on an exception: subprocess.run then kills and
    # reaps the running worker, and the probe is stopped, so nothing outlives the run
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    if not (ROOT / "src" / "trotterchain" / "__init__.py").is_file():
        print(f"perfbench: no trotterchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for the run: the passes and the probe inherit it, so the probe
    # sees the speed that the pass sees
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    configs = write_configs(workload, args.seed, run_dir)
    probe_out = run_dir / "probe.json"
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "--out", str(probe_out)],
        env=hermetic_env(run_dir), cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    try:
        # byte-compile up front, so no pass pays for it in its set-up time
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
            env=hermetic_env(run_dir), cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
        )
        passes = run_passes(workload, configs, run_dir, bool(args.trace), args.seconds, start)
    finally:
        stop(probe)
    samples = json.loads(probe_out.read_text()) if probe_out.exists() else []
    env = environment(args.seed, cpu)
    done = [p for p in passes if p.get("error") is None]
    if done:
        env.update(done[0]["env"])
    checks = collect_checks(passes)
    report = end_to_end(passes[:1] if args.trace else passes, checks, samples)
    record = {"workload": workload.name, "trace": args.trace, "environment": env,
              "end_to_end": report, "checks": checks, "passes": passes}

    metrics = {}
    if args.trace and len(done) == 2:
        traced = passes[1]
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer_value(m["name"], traced, passes[0]),
                                  "unit": m["unit"]}
        summary = {"spans": traced.pop("spans"), "layers": traced["layers"]}
        (run_dir / "trace_summary.json").write_text(json.dumps(summary, indent=1))
        record["per_layer"] = {k: v["value"] for k, v in metrics.items()}
    elif not args.trace:
        for m in spec["end_to_end"]:
            if m["name"] in report:
                metrics[m["name"]] = {"value": report[m["name"]], "unit": m["unit"]}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))

    units = dict(REPORT_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    title = (f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
             f"passes={len(passes)} record={run_dir.relative_to(ROOT)}")
    print_report(title, env, dict(report, **{k: v["value"] for k, v in metrics.items()}),
                 checks, units)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    complete = all(m["name"] in metrics for m in wanted)
    failed = sum(1 for c in checks if not c[1])
    print(json.dumps({"correct": failed == 0 and complete, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())

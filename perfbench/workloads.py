"""The three workloads: configs made from the seed, one pass each, and its checks.

A pass runs trotterchain's own entry points (``cli.main`` verbs where the CLI
has one) on generated config files, writes artifacts to ``out``, and records
the start and end of each verb.  Checks read the artifacts back after the
timed part of the pass and compare them with ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Sizes chosen so that a decay-sampled or conserve-pure pass takes about half
# a minute on a 2-core Xeon: set-up (the Q2+ cover, the order-5 boost) is most
# of either pass whatever the depth, so the depths are short.  The fit verb
# needs four depths, d = 0..3.
DECAY_DEPTH = 3
CONSERVE_DEPTH = 2
CONSERVE_ORDERS = (1, 2, 3, 4, 5)
TOMO_PROBES = (0, 2, 5)

PAPER_DEPOLARIZING = {"kind": "depolarizing", "p1": 0.0013, "p2": 0.013}


class PassError(RuntimeError):
    """A verb of the pass exited non-zero."""


def config_seed(seed: int) -> int:
    # below 2**32: the library folds word seeds to 32 bits, so wider seeds
    # could make two benchmark seeds sample identically
    return random.Random(seed).getrandbits(32)


def _verb(verbs: dict, name: str, fn, *args):
    start = time.monotonic()
    result = fn(*args)
    verbs[name] = (start, time.monotonic())
    return result


def _main(cli, verbs: dict, name: str, argv: list):
    if _verb(verbs, name, cli.main, argv) != 0:
        raise PassError(f"trotterchain {' '.join(argv)} exited non-zero")


def _write_json(path: str, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_csv(path: str) -> list:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _close(name: str, observed, expected, tol: float) -> tuple:
    """Check that two nested structures of numbers agree to ``tol``."""
    worst = _max_abs_diff(observed, expected)
    return (name, worst <= tol, f"max |diff| {worst:.3e} (tol {tol:g})")


def _max_abs_diff(a, b) -> float:
    if isinstance(a, dict):
        if set(a) != set(b):
            return math.inf
        return max((_max_abs_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return math.inf
        return max((_max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, str) or isinstance(b, str):
        return 0.0 if a == b else math.inf
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(float(a) - float(b))


# ---------------------------------------------------------------------------
# decay-sampled: the paper's main experiment, decay then fit
# ---------------------------------------------------------------------------


def decay_configs(seed: int) -> dict:
    return {
        "decay": {
            "schema_version": 1,
            "n_sites": 8,
            "alpha": 0.3,
            "depth_max": DECAY_DEPTH,
            "initial_state": "neel",
            "charges": [[1, "plus"], [2, "plus"]],
            "engine": "noisy",
            "noise": dict(PAPER_DEPOLARIZING),
            "shots_total": 100_000,
            "seed": config_seed(seed),
            "exact_reference": True,
        }
    }


def decay_run(cli, configs: dict, out: str, verbs: dict):
    args = ["--config", configs["decay"], "--out", out]
    _main(cli, verbs, "decay_s", ["decay", *args])
    _main(cli, verbs, "fit_s", ["fit", *args])


def decay_rows(out: str) -> list:
    return [
        {
            "d": int(r["d"]),
            "charge": f"Q{r['charge']}{'+' if r['variant'] == 'plus' else r['variant']}",
            "estimate": float(r["estimate"]),
            "s_q": float(r["s_q"]),
            "exact": float(r["exact"]),
        }
        for r in _read_csv(os.path.join(out, "decay.csv"))
    ]


def decay_observed(out: str) -> dict:
    return {"exact": [[r["d"], r["charge"], r["exact"]] for r in decay_rows(out)]}


def decay_check(configs: dict, out: str, refs: dict) -> list:
    rows = decay_rows(out)
    cfg = _load(configs["decay"])
    n, delta = cfg["n_sites"], math.tan(cfg["alpha"])
    worst = max(_in_sigmas(r["estimate"] - r["exact"], r["s_q"]) for r in rows)
    anchor = next(r["exact"] for r in rows if r["d"] == 0 and r["charge"] == "Q1+")
    expect = -(n / 2) * (2 - delta**2)
    # the reference may reach deeper than the pass: compare the depths both have
    expected = {"exact": [r for r in refs["exact"] if r[0] <= cfg["depth_max"]]}
    return [
        _close("decay exact column matches reference", decay_observed(out), expected, 1e-9),
        ("decay estimates within 5 s_q of exact", worst <= 5.0, f"worst {worst:.2f} s_q"),
        _close("decay <Q1+>(0) = -(N/2)(2 - delta^2)", anchor, expect, 1e-9),
        ("decay fits written", os.path.exists(os.path.join(out, "fits.json")), "fits.json"),
    ]


def _in_sigmas(diff: float, sigma: float) -> float:
    if sigma > 0:
        return abs(diff) / sigma
    return 0.0 if diff == 0 else math.inf


def decay_sigma_rel(out: str) -> list:
    return [r["s_q"] / abs(r["exact"]) for r in decay_rows(out)]


# ---------------------------------------------------------------------------
# conserve-pure: exact conservation of Q1+..Q5+ at N=12
# ---------------------------------------------------------------------------


def conserve_configs(seed: int) -> dict:
    n = 12
    rng = random.Random(seed)
    return {
        "series": {
            "schema_version": 1,
            "n_sites": n,
            "alpha": 0.3,
            "depth_max": CONSERVE_DEPTH,
            # a seed-chosen product eigenstate: conservation holds for any state
            "initial_state": {
                "letters": "".join(rng.choice("XYZ") for _ in range(n)),
                "bits": [rng.randrange(2) for _ in range(n)],
            },
            "charges": [[k, "plus"] for k in CONSERVE_ORDERS],
            "engine": "pure",
            "noise": {"kind": "none"},
            "seed": config_seed(seed),
            "exact_reference": True,
        }
    }


def conserve_run(cli, configs: dict, out: str, verbs: dict):
    config = cli.load_config(configs["series"])
    series = _verb(verbs, "series_s", cli.exact_decay_series, config)
    _write_json(os.path.join(out, "series.json"), {k: v.tolist() for k, v in series.items()})


def window_density_digest() -> str:
    """sha256 of the exact integer window densities Q1+..Q5+ (in-process memo)."""
    from trotterchain.charges import window_density

    docs = [window_density(k, "plus").to_dict(k, "plus") for k in CONSERVE_ORDERS]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def conserve_observed(out: str) -> dict:
    return {"window_density_sha256": window_density_digest()}


def conserve_check(configs: dict, out: str, refs: dict) -> list:
    with open(os.path.join(out, "series.json")) as fh:
        series = json.load(fh)
    drift = max(abs(v - vals[0]) for vals in series.values() for v in vals)
    digest = window_density_digest()
    return [
        ("conserve drift below 1e-9", drift < 1e-9, f"max |<Q>(d) - <Q>(0)| {drift:.3e}"),
        (
            "conserve window densities match bit for bit",
            digest == refs["window_density_sha256"],
            digest[:16],
        ),
    ]


# ---------------------------------------------------------------------------
# dense-analyses: spectrum, tomography and mitigation at small N
# ---------------------------------------------------------------------------


def dense_configs(seed: int) -> dict:
    s = config_seed(seed)
    return {
        "spectrum": {
            "schema_version": 1,
            "n_sites": 4,
            "depth_max": 1,
            "charges": [[1, "plus"]],
            "noise": {"kind": "depolarizing", "p1": 0.018, "p2": 0.018},
            "seed": s,
        },
        "tomo": {
            "schema_version": 1,
            "n_sites": 6,
            "depth_max": max(TOMO_PROBES),
            "charges": [[1, "plus"]],
            "noise": {"kind": "damping", "lambda_a": 0.018, "lambda_p": 0.018},
            "exact_reference": True,
            "seed": s,
        },
        "mitigate": {
            "schema_version": 1,
            "n_sites": 4,
            "depth_max": 15,
            "initial_state": "neel",
            "charges": [[1, "plus"]],
            "noise": dict(PAPER_DEPOLARIZING, readout_flip=0.02),
            "shots_total": 100_000,
            "seed": s,
        },
    }


def dense_run(cli, configs: dict, out: str, verbs: dict):
    _main(cli, verbs, "spectrum_s", ["spectrum", "--config", configs["spectrum"], "--out", out])
    config = cli.load_config(configs["tomo"])
    report = _verb(verbs, "tomo_s", cli.tomo_report, config, list(TOMO_PROBES))
    _write_json(os.path.join(out, "tomo.json"), report)
    _main(cli, verbs, "mitigate_s", ["mitigate", "--config", configs["mitigate"], "--out", out])


def dense_observed(out: str) -> dict:
    with open(os.path.join(out, "spectrum.json")) as fh:
        spectrum = json.load(fh)
    with open(os.path.join(out, "tomo.json")) as fh:
        tomo = json.load(fh)
    eigen = sorted(
        (float(r["re"]), float(r["im"])) for r in _read_csv(os.path.join(out, "spectrum.csv"))
    )
    return {
        "eigenvalues": [list(e) for e in eigen],
        "decay_rate": spectrum["decay_rate"],
        "fixed_point_c2": spectrum["fixed_point_c2"],
        "fidelities": {"self": tomo["self_fidelity"], "pairwise": tomo["pairwise_fidelity"]},
        "mitigation": [
            [float(v) for v in r.values()]
            for r in _read_csv(os.path.join(out, "mitigation.csv"))
        ],
    }


def _match_eigenvalues(observed: list, expected: list) -> float:
    """Largest distance in a greedy nearest-neighbour pairing of two spectra.

    Eigenvalues of equal modulus may come out in another order, so they are
    compared as sets rather than row by row.
    """
    if len(observed) != len(expected):
        return math.inf
    left = [complex(*e) for e in observed]
    worst = 0.0
    for e in expected:
        target = complex(*e)
        i = min(range(len(left)), key=lambda j: abs(left[j] - target))
        worst = max(worst, abs(left.pop(i) - target))
    return worst


def dense_check(configs: dict, out: str, refs: dict) -> list:
    obs = dense_observed(out)
    eig = _match_eigenvalues(obs["eigenvalues"], refs["eigenvalues"])
    fixed = ("decay_rate", "fixed_point_c2")
    return [
        ("dense eigenvalues match reference", eig <= 1e-8, f"max |diff| {eig:.3e} (tol 1e-08)"),
        _close(
            "dense decay rate and fixed point match reference",
            [obs[k] for k in fixed],
            [refs[k] for k in fixed],
            1e-8,
        ),
        _close("dense fidelities match reference", obs["fidelities"], refs["fidelities"], 1e-8),
        _close("dense mitigation rows match reference", obs["mitigation"], refs["mitigation"], 1e-8),
    ]


# ---------------------------------------------------------------------------


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: object  # seed -> {config name: config dict}
    run: object  # (cli, config paths, out dir, verbs) -> None
    observed: object  # out dir -> values compared with the reference
    check: object  # (config paths, out dir, reference) -> [(name, ok, detail)]
    depth_verb: str | None = None  # verb whose engine calls are one per depth
    sigma_rel: object = None  # out dir -> [s_q / |exact|]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decay-sampled", decay_configs, decay_run, decay_observed, decay_check,
                 "decay_s", decay_sigma_rel),
        Workload("conserve-pure", conserve_configs, conserve_run, conserve_observed,
                 conserve_check, "series_s"),
        Workload("dense-analyses", dense_configs, dense_run, dense_observed, dense_check),
    )
}


def load_references() -> dict:
    return _load(REFERENCES)

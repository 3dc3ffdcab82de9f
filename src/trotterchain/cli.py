"""Experiment runner: config parsing, pipelines, CSV/JSON artifacts.

Verbs: ``charges``, ``decay``, ``spectrum``, ``tomo``, ``mitigate``, ``fit``.
Every output embeds the config hash and the code version; identical
(config, seed) pairs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import combinations, islice
from numbers import Integral, Real

import numpy as np

from . import __version__
from . import analysis, measure, mitigate, spectral, tomo
from .charges import ChargeSpec, assemble_cached, charge_label
from .circuit import InitialStateSpec, build_circuit, build_step
from .noise import amp_phase_damping, depolarizing
from .sim import (
    DensityMatrix,
    NoiseModel,
    StateVector,
    evolve_noisy,
    evolve_pure,
    exact_expectation,
    outcome_distribution,
    sample,
)

SCHEMA_VERSION = 1


def _depolarizing_noise(p1=None, p2=None, readout_flip=None) -> NoiseModel:
    one, two = (None if p is None else depolarizing(p) for p in (p1, p2))
    return NoiseModel(one, two, readout_flip)


def _damping_noise(lambda_a=0.018, lambda_p=0.018, p1=False, readout_flip=None) -> NoiseModel:
    """Damping after every CNOT, and after every one-qubit gate too if ``p1`` is true."""
    if not isinstance(p1, bool):
        raise ValueError(f"damping p1 is true or false, not {p1!r}")
    channel = amp_phase_damping(lambda_a, lambda_p)
    return NoiseModel(channel if p1 else None, channel, readout_flip)


# noise kind -> its builder, whose keyword parameters are the keys the kind reads
_NOISE_BUILDERS = {
    "none": lambda readout_flip=None: NoiseModel(readout_flip=readout_flip),
    "depolarizing": _depolarizing_noise,
    "damping": _damping_noise,
}


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    """A finite real: no bool, and not the NaN or Infinity that ``json.load`` accepts."""
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) < np.inf


# field annotation -> the type its value must have; a bool is no number, a float is finite
_FIELD_TYPES = {
    "int": Integral, "int | None": (Integral, type(None)), "float": Real, "bool": bool, "dict": dict
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; the config keys are its fields plus ``schema_version``."""

    n_sites: int
    alpha: float = 0.3
    depth_max: int = 30
    initial_state: InitialStateSpec | None = None
    charges: tuple = ((1, "plus"),)
    engine: str = "noisy"
    noise: dict = field(default_factory=lambda: {"kind": "depolarizing", "p1": 0.0013, "p2": 0.013})
    shots_total: int = 100_000
    seed: int = 0
    exact_reference: bool = True
    fit_window: int | None = None
    beta_star: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            kind, value = _FIELD_TYPES.get(f.type), getattr(self, f.name)
            ok = not kind or isinstance(value, kind) and isinstance(value, bool) == (kind is bool)
            if not ok or kind is Real and not _is_number(value):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        for name, low in (("depth_max", 0), ("shots_total", 1), ("seed", 0), ("fit_window", 2)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be at least {low}, got {value}")
        if self.n_sites % 2:
            raise ConfigError("n_sites must be even")
        if self.engine not in ("pure", "noisy"):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if not self.charges:
            raise ConfigError("charges must name at least one charge")
        specs = []
        for charge in self.charges:
            try:
                order, variant = charge
                spec = ChargeSpec(order, variant, self.n_sites)  # validates N > 2n+1
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"charge {charge!r}: {exc}") from None
            if spec in specs:
                raise ConfigError(f"charge {spec.label} is named twice")
            specs.append(spec)
        object.__setattr__(self, "_specs", tuple(specs))
        if self.initial_state is not None and self.initial_state.n_sites != self.n_sites:
            raise ConfigError("initial state length must match n_sites")
        kind = self.noise.get("kind", "none")
        if kind not in _NOISE_BUILDERS:
            raise ConfigError(f"unknown noise kind {kind!r}")
        build = _NOISE_BUILDERS[kind]
        unread = set(self.noise) - {"kind", *inspect.signature(build).parameters}
        if unread:
            raise ConfigError(f"noise kind {kind!r} does not read {sorted(unread)}")
        for key, value in self.noise.items():
            if key == "kind" or (kind, key) == ("damping", "p1"):
                continue
            if key == "readout_flip" and isinstance(value, (list, tuple)):
                ok = all(map(_is_number, value))
            else:
                ok = value is None or _is_number(value)
            if not ok:
                raise ConfigError(f"noise {key} must be a number or null, got {value!r}")
        try:
            model = build(**{k: v for k, v in self.noise.items() if k != "kind"})
            model.flip_probs(self.n_sites)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if self.engine == "pure" and (model.after_one_qubit or model.after_two_qubit):
            raise ConfigError(f"engine 'pure' takes no gate channels, and noise {kind!r} adds one")
        object.__setattr__(self, "_noise_model", model)

    @property
    def delta(self) -> float:
        return float(np.tan(self.alpha))

    def init_spec(self) -> InitialStateSpec:
        return self.initial_state or InitialStateSpec.neel(self.n_sites)

    def noise_model(self) -> NoiseModel:
        """The model of the ``noise`` block, built and checked once at construction."""
        return self._noise_model

    def specs(self) -> tuple:
        """One :class:`ChargeSpec` per configured charge, in order, built once at construction."""
        return self._specs

    def to_dict(self) -> dict:
        doc = {"schema_version": SCHEMA_VERSION}
        doc.update((f.name, getattr(self, f.name)) for f in fields(self))
        spec = self.init_spec()
        doc["initial_state"] = {"letters": spec.letters, "bits": list(spec.bits)}
        doc["charges"] = [list(c) for c in self.charges]
        doc["noise"] = dict(self.noise)
        return doc

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        kwargs = dict(doc)
        if kwargs.pop("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {doc['schema_version']}")
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        init = kwargs.get("initial_state")
        if isinstance(init, str) and init not in ("neel", "zeros"):
            raise ConfigError(f"unknown initial_state shorthand {init!r}")
        try:
            if isinstance(init, str):
                kwargs["initial_state"] = getattr(InitialStateSpec, init)(doc["n_sites"])
            elif init is not None:
                kwargs["initial_state"] = InitialStateSpec(init["letters"], tuple(init["bits"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"initial_state {init!r}: {exc}") from None
        if "charges" in kwargs:
            try:
                kwargs["charges"] = tuple(map(tuple, kwargs["charges"]))
            except TypeError as exc:
                raise ConfigError(f"charges are [order, variant] pairs: {exc}") from None
        return cls(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def _word_seed(seed: int, depth: int, label: str, word: str) -> int:
    """64-bit sampling key over the full seed and the (depth, charge, word) slot."""
    key = hashlib.blake2b(f"{seed}:{depth}:{label}:{word}".encode(), digest_size=8)
    return int.from_bytes(key.digest(), "little")


def _steps(state, step, depth: int, *noise):
    """``state``, then the states after 1..depth applications of ``step``.

    With a noise model the density-matrix engine steps, without one the pure engine.
    """
    yield state
    for _ in range(depth):
        state = evolve_noisy(step, state, *noise) if noise else evolve_pure(step, state)
        yield state


def _trajectory(config: ExperimentConfig):
    """The state at d = 0..depth_max on the configured engine, one step at a time."""
    init, step = config.init_spec(), build_step(config.n_sites, config.alpha)
    if config.engine == "pure":
        return _steps(StateVector.from_spec(init), step, config.depth_max)
    return _steps(DensityMatrix.from_spec(init), step, config.depth_max, config.noise_model())


def _plan(config: ExperimentConfig, spec: ChargeSpec):
    """The charge and its word cover, with shots_total split evenly over the words."""
    q = assemble_cached(spec)
    words = measure.build_cover(q, config.delta).words
    if config.shots_total < len(words):
        raise ConfigError(
            f"shots_total {config.shots_total} below the {len(words)} "
            f"words needed for {spec.label}"
        )
    return q, measure.MeasurementPlan(words, config.shots_total // len(words))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def decay_table(config: ExperimentConfig, diagnostics: list | None = None) -> list:
    """Rows (d, charge, variant, estimate, s_q, exact) for d = 0..depth_max.

    Each estimator diagnostic is appended to ``diagnostics``, if given, as
    ``"d=<d> <label>: <text>"``.
    """
    delta = config.delta
    noise = config.noise_model()
    charge_ops = {spec.label: (spec, *_plan(config, spec)) for spec in config.specs()}

    labels = sorted(charge_ops)
    # every charge's words are read out in one sample call per depth, each
    # word with its plan's shots and the key of its (depth, label, word) slot
    slots = [(label, wi, w) for label in labels for wi, w in enumerate(charge_ops[label][2].words)]
    words = [w for *_, w in slots]
    shots = [charge_ops[label][2].shots_per_word for label, *_ in slots]
    cuts = np.cumsum([len(charge_ops[label][2].words) for label in labels])[:-1]
    rows = []
    for d, state in enumerate(_trajectory(config)):
        if config.exact_reference:
            exacts = exact_expectation(state, [charge_ops[label][0] for label in labels], delta)
        else:
            exacts = [None] * len(labels)
        keys = [(_word_seed(config.seed, d, label, w), wi) for label, wi, w in slots]
        tables = np.split(sample(state, words, shots, keys, noise), cuts)
        for label, exact, counts in zip(labels, exacts, tables):
            spec, q, plan = charge_ops[label]
            est = measure.estimate(counts, plan, q, delta)
            rows.append((d, spec.order, spec.variant, est.value, est.std_uncertainty, exact))
            if diagnostics is not None:
                diagnostics.extend(f"d={d} {label}: {text}" for text in est.diagnostics)
    return rows


def exact_decay_series(config: ExperimentConfig) -> dict:
    """Exact expectation trajectories per charge label (no sampling)."""
    specs = config.specs()
    series = [exact_expectation(state, specs, config.delta) for state in _trajectory(config)]
    return {spec.label: np.array(column) for spec, column in zip(specs, zip(*series))}


def spectrum_report(config: ExperimentConfig) -> dict:
    op = spectral.vectorize_step(build_step(config.n_sites, config.alpha), config.noise_model())
    vals = spectral.spectrum(op)
    report = {
        "eigenvalues": [(float(v.real), float(v.imag)) for v in vals],
        "decay_rate": spectral.decay_rate(vals),
        "fixed_point_gap": spectral.fixed_point_gap(op),
    }
    try:
        fp = spectral.fixed_point(op)
        c2 = exact_expectation(fp, config.specs(), config.delta)
        report["fixed_point_c2"] = {spec.label: v for spec, v in zip(config.specs(), c2)}
    except (ValueError, spectral.DegenerateFixedPointError) as exc:
        report["fixed_point_error"] = str(exc)
    return report


_TOMO_STATES = {
    "neel": InitialStateSpec.neel,
    "zeros": InitialStateSpec.zeros,
    "yzx": lambda n: InitialStateSpec(("YZX" * n)[:n], (0,) * n),
}


def tomo_report(config: ExperimentConfig, steps: list | None = None) -> dict:
    """Self- and pairwise fidelities of reconstructed states along evolution.

    A finite-shot reconstruction splits ``shots_total`` evenly over the 3^N bases.
    """
    bases = 3**config.n_sites
    if not config.exact_reference and config.shots_total < bases:
        raise ConfigError(f"shots_total {config.shots_total} below the {bases} tomography bases")
    shots = None if config.exact_reference else config.shots_total // bases
    probe = list(range(config.depth_max + 1)) if steps is None else sorted(steps)

    recon, ideal = {}, {}
    for kind, spec in _TOMO_STATES.items():
        init = spec(config.n_sites)
        run = replace(config, initial_state=init, engine="noisy", depth_max=max(probe))
        for d, state in enumerate(_trajectory(run)):
            if d == 0:
                ideal[kind] = tomo.reconstruct(state, None)
            if d == 0 and shots is None:
                recon[kind, d] = ideal[kind]  # the exact reconstruction at d = 0 is ideal itself
            elif d in probe:
                seed = _word_seed(config.seed, d, kind, "tomo")
                recon[kind, d] = tomo.reconstruct(state, shots, seed, config.noise_model())
    # every fidelity in one call, so each state is checked and rooted once
    pairs = [(ideal[kind], recon[kind, d]) for kind in _TOMO_STATES for d in probe]
    pairs += [(recon[a, d], recon[b, d]) for a, b in combinations(_TOMO_STATES, 2) for d in probe]
    values = iter(tomo.fidelities(pairs))
    report = {"steps": probe, "self_fidelity": {}, "pairwise_fidelity": {}}
    for kind in _TOMO_STATES:
        report["self_fidelity"][kind] = list(islice(values, len(probe)))
    for a, b in combinations(_TOMO_STATES, 2):
        report["pairwise_fidelity"][f"{a}|{b}"] = list(islice(values, len(probe)))
    return report


def mitigation_table(config: ExperimentConfig) -> list:
    """Rows (d, unmitigated, mitigated, exact) of the first configured charge,
    normalized by its noiseless value; any further charges are not read.

    Estimates are exact-mode (deterministic); the reported uncertainties are
    the true estimator standard deviations at the configured shot budget.
    """
    delta = config.delta
    noise = config.noise_model()
    n = config.n_sites
    spec = config.specs()[0]
    q, plan = _plan(config, spec)
    init = config.init_spec()

    (noiseless,) = exact_expectation(StateVector.from_spec(init), [spec], delta)
    # zero up to the round-off of a sum over the charge's terms
    if abs(noiseless) <= 1e-13 * np.abs(q.coefficients(delta)).sum():
        raise ConfigError(f"noiseless {spec.label} is 0 on {init.label()}: nothing to normalize by")
    calib = mitigate.calibrate(noise, n, shots=None)

    # the init section has no CNOT, so folding leaves it unchanged: every fold
    # prepares the same state through it (noisy) from |0..0>, then steps with its
    # folded step, running the gates of the folded depth-d circuit in order
    zero = StateVector.zero(n).density_matrix()
    prepared = evolve_noisy(build_circuit(init, config.alpha, 0), zero, noise)
    step = build_step(n, config.alpha)
    folds = [_steps(prepared, mitigate.zne_fold(step, k), config.depth_max, noise) for k in (0, 1)]
    # every word's distribution, shaped (depth, fold, word, outcome), unfolded in one call
    dists = np.array(
        [[outcome_distribution(rho, plan.words, noise) for rho in states] for states in zip(*folds)]
    )
    fixed = mitigate.correct(dists.reshape(-1, dists.shape[-1]), calib).reshape(dists.shape)
    raw = measure.exact_estimator_variance(dists[:, 0], plan, q, delta)
    ones, threes = (measure.exact_estimator_variance(fixed[:, k], plan, q, delta) for k in (0, 1))
    scale = abs(noiseless)
    rows = []
    for d, ((e, sd), (e1, s1), (e3, s3)) in enumerate(zip(raw, ones, threes)):
        mit, mit_sd = mitigate.zne_extrapolate(e1, e3), mitigate.zne_sigma(s1, s3)
        rows.append((d, e / noiseless, sd / scale, mit / noiseless, mit_sd / scale, 1.0))
    return rows


def fit_report(config: ExperimentConfig, rows: list) -> dict:
    """Exponential and early-linear fits of a decay table, per charge; the
    exponential fit keeps its diagnostics."""
    series: dict = {}
    for d, order, variant, est, s_q, exact in rows:
        key = charge_label(order, variant)
        series.setdefault(key, (order, []))[1].append(
            (d, exact if exact is not None else est, 0.0 if exact is not None else s_q)
        )
    out = {}
    for key, (order, pts) in sorted(series.items()):
        pts.sort()
        ds = analysis.DecaySeries(
            [p[0] for p in pts],
            [p[1] for p in pts],
            [p[2] for p in pts] if any(p[2] > 0 for p in pts) else None,
        )
        fit = analysis.fit_exp(ds)
        entry = {
            "exp": {
                "parameters": fit.parameters,
                "std_errors": fit.std_errors,
                "converged": fit.converged,
                "diagnostics": list(fit.diagnostics),
            }
        }
        window = min(config.fit_window or 6, len(pts))
        if pts[0][1] != 0.0:
            lin = analysis.fit_early_linear(ds, window)
            entry["early_linear"] = {
                "parameters": lin.parameters,
                "std_errors": lin.std_errors,
                "window": window,
            }
            entry["benchmark"] = analysis.benchmark_verdict(
                lin.parameters["beta"],
                config.beta_star,
                config.n_sites,
                config.depth_max,
                order,
                config.init_spec().label(),
            )
        out[key] = entry
    return out


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def write_csv(path: str, config: ExperimentConfig, columns: str, rows):
    """Header, column line, one line per row: floats as ``repr``, None empty, else ``str``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# trotterchain={__version__} config_sha256={config.digest()}\n{columns}\n")
        for row in rows:
            cells = ("" if x is None else repr(x) if isinstance(x, float) else str(x) for x in row)
            fh.write(",".join(cells) + "\n")


def _write_json(path: str, config: ExperimentConfig, payload: dict):
    doc = {
        "trotterchain": __version__,
        "config_sha256": config.digest(),
        "config": config.to_dict(),
    }
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trotterchain",
        description="Trotterized XXX chain: charges, decay, spectra, tomography, mitigation",
    )
    parser.add_argument("verb", choices=["charges", "decay", "spectrum", "tomo", "mitigate", "fit"])
    parser.add_argument("--config", required=True, help="experiment JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        os.makedirs(args.out, exist_ok=True)

        if args.verb == "charges":
            for spec in config.specs():
                q = assemble_cached(spec)
                path = os.path.join(args.out, f"charge_{spec.label}_N{config.n_sites}.json")
                _write_json(path, config, {"charge": q.to_dict(spec.order, spec.variant)})
                print(f"wrote {path} ({len(q)} terms)")
        elif args.verb == "decay":
            diagnostics = []
            rows = decay_table(config, diagnostics)
            for line in diagnostics:
                print(line, file=sys.stderr)
            path = os.path.join(args.out, "decay.csv")
            write_csv(path, config, "d,charge,variant,estimate,s_q,exact", rows)
            print(f"wrote {path} ({len(rows)} rows)")
        elif args.verb == "spectrum":
            report = spectrum_report(config)
            path = os.path.join(args.out, "spectrum.csv")
            write_csv(path, config, "re,im", report["eigenvalues"])
            meta = {k: v for k, v in report.items() if k != "eigenvalues"}
            _write_json(os.path.join(args.out, "spectrum.json"), config, meta)
            print(f"wrote {path} and spectrum.json")
        elif args.verb == "tomo":
            report = tomo_report(config)
            path = os.path.join(args.out, "tomo.json")
            _write_json(path, config, report)
            print(f"wrote {path}")
        elif args.verb == "mitigate":
            rows = mitigation_table(config)
            path = os.path.join(args.out, "mitigation.csv")
            columns = "d,unmitigated,unmitigated_sd,mitigated,mitigated_sd,exact"
            write_csv(path, config, columns, rows)
            print(f"wrote {path}")
        elif args.verb == "fit":
            decay_path = os.path.join(args.out, "decay.csv")
            rows = read_decay_csv(decay_path)
            report = fit_report(config, rows)
            path = os.path.join(args.out, "fits.json")
            _write_json(path, config, {"fits": report})
            csv_path = os.path.join(args.out, "fits.csv")
            fit_rows = []
            for key, entry in sorted(report.items()):
                for model in ("exp", "early_linear"):
                    if model not in entry:
                        continue
                    fit = entry[model]
                    for name, val in sorted(fit["parameters"].items()):
                        err, conv = fit["std_errors"][name], fit.get("converged", True)
                        fit_rows.append((key, model, name, val, err, conv))
            columns = "charge,model,parameter,value,std_error,converged"
            write_csv(csv_path, config, columns, fit_rows)
            bench_path = os.path.join(args.out, "benchmarks.jsonl")
            with open(bench_path, "w") as fh:
                for key, entry in sorted(report.items()):
                    if "benchmark" in entry:
                        fh.write(json.dumps({"charge": key, **entry["benchmark"]}, sort_keys=True))
                        fh.write("\n")
            print(f"wrote {path}, {csv_path} and {bench_path}")
    except Exception as exc:  # surface context, exit nonzero
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def read_decay_csv(path: str) -> list:
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("d,"):
                continue
            d, order, variant, est, s_q, exact = line.rstrip("\n").split(",")
            rows.append(
                (
                    int(d),
                    int(order),
                    variant,
                    float(est),
                    float(s_q),
                    float(exact) if exact else None,
                )
            )
    return rows


if __name__ == "__main__":
    sys.exit(main())

import functools
import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from trotterchain import analysis, charges, cli, sim, tomo
from trotterchain.charges import ChargeSpec, assemble
from trotterchain.cli import ConfigError, ExperimentConfig


def base_config(**over):
    doc = {
        "schema_version": 1,
        "n_sites": 4,
        "alpha": 0.3,
        "depth_max": 3,
        "initial_state": "neel",
        "charges": [[1, "plus"]],
        "engine": "noisy",
        "noise": {"kind": "depolarizing", "p1": 0.0013, "p2": 0.013},
        "shots_total": 2000,
        "seed": 11,
        "exact_reference": True,
    }
    doc.update(over)
    return doc


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(extra_key=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(n_sites=5))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(charges=[[2, "plus"]]))  # N > 2n+1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(noise={"kind": "depolarizing", "pp1": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(schema_version=99))
    cfg = ExperimentConfig.from_dict(base_config())
    assert cfg.delta == pytest.approx(np.tan(0.3))


def test_config_builds_its_charge_specs_once_in_order():
    cfg = ExperimentConfig.from_dict(base_config(n_sites=6, charges=[[2, "minus"], [1, "dif"]]))
    assert cfg.specs() == (ChargeSpec(2, "minus", 6), ChargeSpec(1, "dif", 6))
    assert cfg.specs() is cfg.specs()


BAD_CONFIG = {
    "n_sites a string": {"n_sites": "4"},
    "n_sites a float": {"n_sites": 4.0},
    "n_sites a bool": {"n_sites": True},
    "depth_max a float": {"depth_max": 2.5},
    "depth_max negative": {"depth_max": -1},
    "shots_total zero": {"shots_total": 0},
    "seed a float": {"seed": 1.5},
    "seed negative": {"seed": -1},
    "alpha a string": {"alpha": "0.3"},
    "alpha NaN": {"alpha": float("nan")},
    "alpha Infinity": {"alpha": float("inf")},
    "beta_star NaN": {"beta_star": float("nan")},
    "beta_star a bool": {"beta_star": True},
    "exact_reference an int": {"exact_reference": 1},
    "charge order a string": {"charges": [["x", "plus"]]},
    "charge order a float": {"charges": [[1.0, "plus"]]},
    "charge not a pair": {"charges": [[1]]},
    "charges not a list of pairs": {"charges": [1]},
    "charges empty": {"charges": []},
    "charge named twice": {"charges": [[1, "plus"], [1, "plus"]]},
    "initial-state bit 2": {"initial_state": {"letters": "ZZZZ", "bits": [0, 1, 0, 2]}},
    "initial-state without bits": {"initial_state": {"letters": "ZZZZ"}},
    "initial-state bit true": {"initial_state": {"letters": "ZZZZ", "bits": [True, 0, 1, 0]}},
    "initial-state bit 1.0": {"initial_state": {"letters": "ZZZZ", "bits": [1, 0, 1.0, 0]}},
    "initial-state letter list": {"initial_state": {"letters": list("ZZZZ"), "bits": [0, 1, 0, 1]}},
    "fit_window a float": {"fit_window": 2.5},
    "fit_window a bool": {"fit_window": True},
    "fit_window 1": {"fit_window": 1},
    "fit_window 0": {"fit_window": 0},
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG))
def test_config_types_rejected_at_load(case):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(**BAD_CONFIG[case]))


BAD_NOISE = {
    "bogus kind": {"kind": "bogus"},
    "noise not an object": "depolarizing",
    "damping lambda_a NaN": {"kind": "damping", "lambda_a": float("nan")},
    "p1 above 1": {"kind": "depolarizing", "p1": 1.5, "p2": 0.013},
    "damping rates above 1": {"kind": "damping", "lambda_a": 0.8, "lambda_p": 0.8},
    "readout flip above 1": {"kind": "none", "readout_flip": 1.5},
    "readout flip of wrong length": {"kind": "none", "readout_flip": [0.01, 0.02]},
    "p2 under damping": {"kind": "damping", "p2": 0.5},
    "p1 under none": {"kind": "none", "p1": 0.01},
    "lambda_a under depolarizing": {"kind": "depolarizing", "lambda_a": 0.1},
    "damping p1 a rate": {"kind": "damping", "p1": 0.0},
    "damping p1 a string": {"kind": "damping", "p1": "x"},
    "p1 a string": {"kind": "depolarizing", "p1": "0.01"},
    "p1 true": {"kind": "depolarizing", "p1": True},
    "readout flip true": {"kind": "none", "readout_flip": True},
    "readout flip a string": {"kind": "none", "readout_flip": "0.1"},
    "readout flip list with a string": {"kind": "none", "readout_flip": [0.1, "0.2", 0, 0]},
    "damping lambda_a true": {"kind": "damping", "lambda_a": True, "lambda_p": 0.0},
}


@pytest.mark.parametrize("case", sorted(BAD_NOISE))
def test_noise_block_rejected_at_load(tmp_path, capsys, case):
    doc = base_config(noise=BAD_NOISE[case])
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)
    out = tmp_path / "out"
    assert cli.main(["charges", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "error: ConfigError" in capsys.readouterr().err
    assert not out.exists()


PURE_WITH_CHANNELS = {
    "depolarizing p1": {"kind": "depolarizing", "p1": 0.01},
    "damping": {"kind": "damping"},
}


@pytest.mark.parametrize("case", sorted(PURE_WITH_CHANNELS))
def test_pure_engine_rejects_gate_channels(case):
    with pytest.raises(ConfigError, match="pure"):
        ExperimentConfig.from_dict(base_config(engine="pure", noise=PURE_WITH_CHANNELS[case]))


def test_pure_engine_takes_readout_only_noise():
    noise = {"kind": "none", "readout_flip": 0.02}
    cfg = ExperimentConfig.from_dict(base_config(engine="pure", noise=noise))
    assert cfg.noise_model().readout_flip == 0.02


def test_noiseless_decay_exact_column_constant(tmp_path):
    doc = base_config(engine="pure", noise={"kind": "none"}, depth_max=6, shots_total=1000)
    cfg = ExperimentConfig.from_dict(doc)
    rows = cli.decay_table(cfg)
    exact = [r[5] for r in rows]
    assert max(abs(v - exact[0]) for v in exact) < 1e-9


def test_exact_decay_series_never_assembles_a_charge(monkeypatch):
    # the series reads each charge's periodic density; assembling Q5+ at N=12
    # (182,397 terms) only to evaluate it is what the density replaced
    def no_assembly(spec):
        raise AssertionError(f"{spec.label} was assembled")

    for module, name in ((cli, "assemble_cached"), (charges, "assemble"), (charges, "assemble_cached")):
        monkeypatch.setattr(module, name, no_assembly)
    doc = base_config(engine="pure", noise={"kind": "none"}, charges=[[1, "plus"], [1, "dif"]])
    series = cli.exact_decay_series(ExperimentConfig.from_dict(doc))
    assert list(series) == ["Q1+", "Q1dif"] and all(len(v) == 4 for v in series.values())


def test_exact_decay_series_never_expands_a_window_density(monkeypatch):
    # a periodic density is summed straight from the letter-orbit
    # representatives; expanding the window density first held the charge
    # twice (fresh memos, so that the densities are built inside the spy)
    for module, name in ((sim, "periodic_density"), (charges, "window_density")):
        monkeypatch.setattr(module, name, functools.cache(getattr(charges, name).__wrapped__))
    doc = base_config(
        n_sites=6, engine="pure", noise={"kind": "none"}, charges=[[1, "plus"], [2, "dif"]]
    )
    with mock.patch.object(charges, "_expand", wraps=charges._expand) as spy:
        series = cli.exact_decay_series(ExperimentConfig.from_dict(doc))
    assert list(series) == ["Q1+", "Q2dif"] and spy.call_count == 0


def test_decay_table_reads_each_state_once(monkeypatch):
    # the words of both charges go to one sample call per depth, so the noisy
    # engine builds one Pauli spectrum per depth, not one per charge; each
    # charge's rows are still those it draws alone
    doc = base_config(n_sites=6, depth_max=2, charges=[[1, "plus"], [2, "plus"]])
    alone = [
        cli.decay_table(ExperimentConfig.from_dict({**doc, "charges": [c]})) for c in doc["charges"]
    ]
    calls = {"sample": 0, "pauli_spectrum": 0}
    for module, name in ((cli, "sample"), (sim, "pauli_spectrum")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    rows = cli.decay_table(ExperimentConfig.from_dict(doc))
    assert calls == {"sample": 3, "pauli_spectrum": 3}
    assert [r for r in rows if r[1] == 1] == alone[0]
    assert [r for r in rows if r[1] == 2] == alone[1]


_PURE = {"engine": "pure", "noise": {"kind": "none"}}


@pytest.mark.parametrize(
    "pipeline, over, engine, starts",
    [
        ("decay_table", {}, "evolve_noisy", 1),
        ("decay_table", _PURE, "evolve_pure", 1),
        ("exact_decay_series", {}, "evolve_noisy", 1),
        ("exact_decay_series", _PURE, "evolve_pure", 1),
        ("tomo_report", {}, "evolve_noisy", 3),  # one trajectory per initial state
        ("mitigation_table", {}, "evolve_noisy", 2),  # one per fold
    ],
)
def test_pipelines_step_through_the_cli_engine_bindings(monkeypatch, pipeline, over, engine, starts):
    # the benchmark times the engines through cli.evolve_noisy and
    # cli.evolve_pure, one call per step: every evolution of a pipeline goes
    # through them, one one-step circuit per call, each trajectory advancing
    # from the state its last call returned; mitigation's preparation adds
    # one call on a circuit of depth 0
    config = ExperimentConfig.from_dict(base_config(**over))
    calls, evolutions = [], []
    real_evolve = sim._evolve
    monkeypatch.setattr(sim, "_evolve", lambda *args: evolutions.append(1) or real_evolve(*args))
    for name in ("evolve_noisy", "evolve_pure"):
        real = getattr(cli, name)

        def spy(circuit, state, *noise, real=real, name=name):
            out = real(circuit, state, *noise)
            calls.append((name, circuit.depth, state, out))
            return out

        monkeypatch.setattr(cli, name, spy)
    getattr(cli, pipeline)(config)
    assert len(calls) == len(evolutions)
    prepared = [out for _, depth, _, out in calls if depth == 0]
    assert len(prepared) == (1 if pipeline == "mitigation_table" else 0)
    stepped = [(name, state, out) for name, depth, state, out in calls if depth == 1]
    assert len(stepped) == len(calls) - len(prepared)
    assert {name for name, *_ in stepped} == {engine}
    assert len(stepped) == starts * config.depth_max
    # each step's state is the trajectory's start or the output of the step before it
    heads = {id(out): out for out in prepared}
    for _, state, out in stepped:
        heads.pop(id(state), None)
        heads[id(out)] = out
    assert len(heads) == starts


def test_decay_csv_round_trip_and_header(tmp_path):
    doc = base_config()
    cfg = ExperimentConfig.from_dict(doc)
    rows = cli.decay_table(cfg)
    path = tmp_path / "decay.csv"
    cli.write_csv(str(path), cfg, "d,charge,variant,estimate,s_q,exact", rows)
    text = path.read_text()
    assert text.startswith("# trotterchain=")
    assert f"config_sha256={cfg.digest()}" in text
    back = cli.read_decay_csv(str(path))
    assert len(back) == len(rows)
    assert back[0][0] == 0 and back[0][2] == "plus"


def test_cli_decay_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = str(tmp_path)
    assert cli.main(["decay", "--config", cfg_path, "--out", out]) == 0
    first = (tmp_path / "decay.csv").read_bytes()
    assert cli.main(["decay", "--config", cfg_path, "--out", out]) == 0
    assert (tmp_path / "decay.csv").read_bytes() == first


def test_cli_error_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(n_sites=5))
    assert cli.main(["decay", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    assert "error: ConfigError: n_sites must be even" in capsys.readouterr().err


def test_cli_charges_export(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["charges", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "charge_Q1+_N4.json").read_text())
    from trotterchain.charges import PauliPolynomial

    q = PauliPolynomial.from_dict(doc["charge"])
    assert q == assemble(ChargeSpec(1, "plus", 4))
    assert doc["trotterchain"]


def test_cli_spectrum_and_fit(tmp_path):
    cfg_path = write_config(tmp_path, base_config(depth_max=8))
    assert cli.main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[1] == "re,im" and len(lines) == 2 + 256
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert meta["decay_rate"] > 0
    assert abs(meta["fixed_point_c2"]["Q1+"]) < 1e-6

    assert cli.main(["decay", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    assert cli.main(["fit", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    fits = json.loads((tmp_path / "fits.json").read_text())
    gamma = fits["fits"]["Q1+"]["exp"]["parameters"]["gamma"]
    assert 0.05 < gamma < 0.6
    fit_rows = (tmp_path / "fits.csv").read_text().splitlines()
    assert fit_rows[1] == "charge,model,parameter,value,std_error,converged"
    assert any(line.startswith("Q1+,exp,gamma,") for line in fit_rows)
    bench = (tmp_path / "benchmarks.jsonl").read_text().splitlines()
    assert bench and json.loads(bench[0])["charge"] == "Q1+"


def test_cli_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    cli.main(["decay", "--config", cfg_path, "--out", str(tmp_path)])
    a = (tmp_path / "decay.csv").read_text()
    cli.main(["decay", "--config", cfg_path, "--seed", "999", "--out", str(tmp_path)])
    b = (tmp_path / "decay.csv").read_text()
    assert a != b


@pytest.mark.parametrize(
    "table", [cli.decay_table, cli.mitigation_table], ids=["decay_table", "mitigation_table"]
)
def test_shots_below_word_count_rejected(table):
    doc = base_config(shots_total=2)
    cfg = ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        table(cfg)


@pytest.mark.parametrize(
    "init, label",
    [("neel", "|0101>_ZZZZ"), ({"letters": "XXXX", "bits": [0, 0, 0, 0]}, "|0000>_XXXX")],
)
def test_mitigation_rejects_a_charge_whose_noiseless_value_is_zero(
    tmp_path, capsys, monkeypatch, init, label
):
    doc = base_config(charges=[[1, "dif"]], initial_state=init)

    def no_fold(*args):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(cli.mitigate, "zne_fold", no_fold)
    with pytest.raises(ConfigError) as exc:
        cli.mitigation_table(ExperimentConfig.from_dict(doc))
    assert "Q1dif" in str(exc.value) and label in str(exc.value)
    out = tmp_path / "out"
    assert cli.main(["mitigate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "error: ConfigError" in capsys.readouterr().err
    assert not (out / "mitigation.csv").exists()


def test_seed_above_32_bits_changes_samples():
    low = cli.decay_table(ExperimentConfig.from_dict(base_config(seed=5)))
    high = cli.decay_table(ExperimentConfig.from_dict(base_config(seed=5 + 2**32)))
    assert [r[3] for r in low] != [r[3] for r in high]
    assert [r[5] for r in low] == [r[5] for r in high]


@pytest.mark.parametrize("exact", [False, True], ids=["finite_shots", "exact_reference"])
def test_tomography_reads_out_through_readout_flip(exact):
    # finite-shot tomography draws through the config's readout flips; the
    # exact reconstructions are the ideal reference and ignore them
    def report(**flip):
        noise = {"kind": "damping", "lambda_a": 0.018, "lambda_p": 0.018, **flip}
        doc = base_config(noise=noise, shots_total=500, exact_reference=exact)
        return cli.tomo_report(ExperimentConfig.from_dict(doc), steps=[0, 2])

    assert (report(readout_flip=0.3) == report()) == exact


def test_tomography_shot_seeds_never_repeat(monkeypatch):
    # every finite-shot reconstruction of a run, and of the run with the next
    # seed, draws from a stream of its own
    seeds = []
    real = tomo.reconstruct

    def spy(state, shots, *rest):
        if shots is not None:
            seeds.append(rest[0])
        return real(state, shots, *rest)

    monkeypatch.setattr(tomo, "reconstruct", spy)
    for seed in (11, 12):
        doc = base_config(depth_max=2, shots_total=500, exact_reference=False, seed=seed)
        cli.tomo_report(ExperimentConfig.from_dict(doc))
    assert len(seeds) == 18 and len(set(seeds)) == 18


def test_tomography_splits_shots_total_over_the_bases(monkeypatch):
    # shots_total is the budget of one read-out pass, as in decay: N = 4 has 81 bases
    low = base_config(depth_max=1, shots_total=80, exact_reference=False)
    with pytest.raises(ConfigError, match="81 tomography bases"):
        cli.tomo_report(ExperimentConfig.from_dict(low), steps=[1])
    shots = []
    real = tomo.reconstruct

    def spy(state, n_shots, *rest):
        shots.append(n_shots)
        return real(state, n_shots, *rest)

    monkeypatch.setattr(tomo, "reconstruct", spy)
    doc = base_config(depth_max=1, shots_total=1000, exact_reference=False)
    cli.tomo_report(ExperimentConfig.from_dict(doc), steps=[1])
    assert {s for s in shots if s is not None} == {1000 // 81}


def test_fit_report_reads_order_from_rows():
    cfg = ExperimentConfig.from_dict(base_config(depth_max=5))
    rows = [(d, 10, "plus", 0.0, 0.0, float(np.exp(-0.05 * d))) for d in range(6)]
    report = cli.fit_report(cfg, rows)
    assert list(report) == ["Q10+"]
    assert report["Q10+"]["benchmark"]["n"] == 10


def test_fit_report_gives_the_window_the_fit_used():
    # depths 0..3 are four points, fewer than the configured window
    doc = base_config(engine="pure", noise={"kind": "none"}, fit_window=10)
    cfg = ExperimentConfig.from_dict(doc)
    report = cli.fit_report(cfg, cli.decay_table(cfg))
    assert report["Q1+"]["early_linear"]["window"] == 4


def test_fit_report_fits_six_points_by_default():
    # no fit_window: the early-linear fit keeps the first six of eight points
    cfg = ExperimentConfig.from_dict(base_config(depth_max=7))
    assert cfg.fit_window is None
    d = np.arange(8.0)
    values = np.exp(-0.05 * d)
    rows = [(int(k), 1, "plus", 0.0, 0.0, float(v)) for k, v in zip(d, values)]
    fit = cli.fit_report(cfg, rows)["Q1+"]["early_linear"]
    assert fit["window"] == 6
    want = analysis.fit_early_linear(analysis.DecaySeries(d[:6], values[:6]))
    assert fit["parameters"] == want.parameters
    seven = analysis.fit_early_linear(analysis.DecaySeries(d, values), 7)
    assert fit["parameters"] != seven.parameters  # the series tells the windows apart


# Every artifact of every verb on two small configs, pinned by sha256: the
# first samples with readout flips and writes a dif charge; the second runs
# damping with finite-shot tomography (exact_reference false).
PINNED_RUNS = {
    "depolarizing": (
        base_config(
            charges=[[1, "plus"], [1, "dif"]],
            noise={"kind": "depolarizing", "p1": 0.0013, "p2": 0.013, "readout_flip": 0.02},
            shots_total=4000,
            seed=5,
        ),
        {
            "benchmarks.jsonl": "2f2052675392302be73e60c6a63c363d6dc131255203b3907fb4e30b3b652ce5",
            "charge_Q1+_N4.json": "3fe821f89dfdd92c0e5beae2a86408be7b40ce48756dd3dd72bc332a45db41fc",
            "charge_Q1dif_N4.json": "8e72a69452c1bc0e27d24b86b9d348bd968f228bf4e09c7fd3ba56bf602766d2",
            "decay.csv": "9d1c24a4ee37212083a3c6d09831f2d338aedfc3d9844285b3cf5fea9631b0cc",
            "fits.csv": "9727ef2fc471bff0dc310a452583c9ad9727d0208770391c01eaf7b0e91d9a58",
            "fits.json": "02ef5f9f2c2235ff979912d9c99ab3f96c4edfa0d97a7c5a175b5b3b90b0f16c",
            "mitigation.csv": "f0991580fdbbac27136f87b0eb05655cc146f82e93121e43c650e093e9a6df09",
            "spectrum.csv": "96858cf7b0de6926f6864b8fa3c71b5972830cf970bd2a2d9b6328e64b8130df",
            "spectrum.json": "ec8f0ed4f2626653cf857dbae80f1307b2abd8a462af6b5d13b87dbb493a6d4d",
            "tomo.json": "ed930a8d91f4061f6280c90e133436360947cfaaf15e720d19e2f76706c1bae8",
        },
    ),
    "damping": (
        base_config(
            initial_state={"letters": "XYZX", "bits": [0, 1, 1, 0]},
            noise={"kind": "damping", "lambda_a": 0.018, "lambda_p": 0.018},
            shots_total=3000,
            seed=9,
            exact_reference=False,
        ),
        {
            "benchmarks.jsonl": "e63fb0865ac2c0d680b7df90fb5fc23519cc7fd955c0c64e6c63b79dc9cdc965",
            "charge_Q1+_N4.json": "e819a82716f3a44823a02166dd1c50fe88b7fb3654927ad8065bc7dc89f71d85",
            "decay.csv": "aa9d8839ee6717c250b295e6dbf0f1f3dfe2e0ab9eff80f05cb7ddc43ee01d91",
            "fits.csv": "5a9a2cd09662e44020123ba7e4b934ef20fc9b1b9e1b2a6e41364e5364dfb79e",
            "fits.json": "40b86c3baafd76084b66a736755d1a3617ca78492f8889f4a41b0dbb8ffb970d",
            "mitigation.csv": "9096d98cc47a2852821a68ced97f6006cece03776f27a50258a32899624dbe1f",
            "spectrum.csv": "73fdbabbd1d58c5bec62e320b35f03b009fe233c400c2a292b639d3deb5b0590",
            "spectrum.json": "15f36e8272fc0cb9392cbd21f183316c8ba02be58b56fe56ca8a47a6edc3b187",
            "tomo.json": "0ce9e2baaf6d66be96667b7f567541fcb84e0a8675ea09202c846d39f00aad8f",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_every_verb_writes_pinned_artifacts(tmp_path, name):
    doc, expected = PINNED_RUNS[name]
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    for verb in ("charges", "decay", "fit", "spectrum", "tomo", "mitigate"):
        assert cli.main([verb, "--config", cfg_path, "--out", str(out)]) == 0, verb
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())
    }
    assert digests == expected


def test_fits_json_keeps_the_fit_diagnostics(tmp_path):
    # the pinned depolarizing run's Q1dif series has no identifiable decay rate
    cfg_path = write_config(tmp_path, PINNED_RUNS["depolarizing"][0])
    for verb in ("decay", "fit"):
        assert cli.main([verb, "--config", cfg_path, "--out", str(tmp_path)]) == 0, verb
    fits = json.loads((tmp_path / "fits.json").read_text())["fits"]
    q1dif, q1plus = fits["Q1dif"]["exp"], fits["Q1+"]["exp"]
    assert not q1dif["converged"]
    assert q1dif["diagnostics"] == [
        "singular normal equations; parameters unidentifiable",
        "decay rate unidentifiable on this series",
    ]
    assert q1plus["converged"] and q1plus["diagnostics"] == []

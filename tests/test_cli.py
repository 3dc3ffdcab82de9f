import json

import numpy as np
import pytest

from trotterchain import cli
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


def test_noiseless_decay_exact_column_constant(tmp_path):
    doc = base_config(engine="pure", noise={"kind": "none"}, depth_max=6, shots_total=1000)
    cfg = ExperimentConfig.from_dict(doc)
    rows = cli.decay_table(cfg)
    exact = [r[5] for r in rows]
    assert max(abs(v - exact[0]) for v in exact) < 1e-9


def test_decay_csv_round_trip_and_header(tmp_path):
    doc = base_config()
    cfg = ExperimentConfig.from_dict(doc)
    rows = cli.decay_table(cfg)
    path = tmp_path / "decay.csv"
    cli.write_decay_csv(str(path), cfg, rows)
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


def test_seed_above_32_bits_changes_samples():
    low = cli.decay_table(ExperimentConfig.from_dict(base_config(seed=5)))
    high = cli.decay_table(ExperimentConfig.from_dict(base_config(seed=5 + 2**32)))
    assert [r[3] for r in low] != [r[3] for r in high]
    assert [r[5] for r in low] == [r[5] for r in high]


def test_workers_give_identical_results():
    cfg = ExperimentConfig.from_dict(base_config(depth_max=2))
    rows1 = cli.decay_table(cfg, workers=1)
    rows4 = cli.decay_table(cfg, workers=4)
    assert rows1 == rows4


def test_fit_report_reads_order_from_rows():
    cfg = ExperimentConfig.from_dict(base_config(depth_max=5))
    rows = [(d, 10, "plus", 0.0, 0.0, float(np.exp(-0.05 * d))) for d in range(6)]
    report = cli.fit_report(cfg, rows)
    assert list(report) == ["Q10+"]
    assert report["Q10+"]["benchmark"]["n"] == 10

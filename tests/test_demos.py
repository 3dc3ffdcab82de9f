import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


DEMO_OUTPUT = {
    "01_conserved_charges": "q[4,+]:  4767 Pauli terms",
    "02_noisy_decay": "sampled estimates (d, value +- s_Q, exact):",
    "03_channel_spectrum": "256 eigenvalues; largest two",
    "04_tomography": "all pairwise fidelities at d=30",
    "05_error_mitigation": "indistinguishable at d = ",
    "06_benchmark": "higher / more nonlocal charges decay faster",
}


def test_every_demo_is_run():
    assert sorted(DEMO_OUTPUT) == sorted(path.stem for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", sorted(DEMO_OUTPUT))
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{script}.py")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMO_OUTPUT[script] in proc.stdout

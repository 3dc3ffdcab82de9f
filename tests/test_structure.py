"""Module boundaries of the library, read from its source with ``ast``."""

import ast
import importlib
from pathlib import Path
from types import ModuleType, SimpleNamespace

import trotterchain

PACKAGE = Path(trotterchain.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str, modules) -> list:
    """Every ``from .m import _name`` and every ``m._name`` read of a package
    module ``m`` in ``source``, as text."""
    tree = ast.parse(source)
    aliases = {}  # local name -> package module bound by ``from . import m``
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "trotterchain":
            continue
        target = module.removeprefix("trotterchain").lstrip(".")
        for alias in node.names:
            if not target and alias.name in modules:
                aliases[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                found.append(f"from .{target} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_private_reads_are_found():
    modules = {"sim", "pauli"}
    source = (
        "from . import sim\nfrom . import pauli as p\nfrom .pauli import _SINGLE, word_masks\n"
        "from trotterchain.charges import _key\nx = sim._CHUNK + p.key(1, 2, 3) + p._UNITS\n"
        "from . import __version__\n"
    )
    assert sorted(private_reads(source, modules)) == [
        "from .charges import _key",
        "from .pauli import _SINGLE",
        "pauli._UNITS",
        "sim._CHUNK",
    ]


def test_no_module_reads_another_modules_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {p.stem for p in paths}
    found = {p.name: private_reads(p.read_text(), modules) for p in paths}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps each (module, function) of TRACED and
    # ENGINES with a bare getattr, so a deleted name would crash every traced
    # pass; read both literals from its source without importing it
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    found = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("TRACED", "ENGINES")
    }
    names = [f"{mod}.{func}" for mod, funcs in found["TRACED"].items() for func in funcs]
    names += list(found["ENGINES"])
    missing = []
    for name in names:
        mod, func = name.split(".")
        if not hasattr(importlib.import_module(f"trotterchain.{mod}"), func):
            missing.append(name)
    assert missing == []


def test_layer_probe_reads_every_counter():
    # a traced benchmark pass reads Circuit.depth, init_end, evolution_end,
    # cnot_count(), measure.contains and PauliPolynomial.terms through the
    # probe's hooks; a deleted name would crash every traced pass.  The probe
    # is driven on an N=4 decay pass's calls, the tracer a stand-in
    path = Path(__file__).parents[1] / "perfbench" / "worker.py"
    worker = ModuleType("worker")  # run from its source, so no bytecode is cached beside it
    exec(compile(path.read_text(), str(path), "exec"), vars(worker))  # stdlib imports only

    from trotterchain.charges import ChargeSpec, assemble_cached
    from trotterchain.circuit import InitialStateSpec, build_step
    from trotterchain.measure import build_cover
    from trotterchain.noise import depolarizing
    from trotterchain.sim import DensityMatrix, NoiseModel

    tracer = SimpleNamespace(hooks={})
    probe = worker.LayerProbe(tracer)
    charge_spec = ChargeSpec(1, "plus", 4)
    charge = assemble_cached(charge_spec)
    tracer.hooks["charges.assemble_cached"]((charge_spec,), {}, charge)
    tracer.hooks["measure.build_cover"]((charge, 0.3), {}, build_cover(charge, 0.3))
    step = build_step(4, 0.3)
    rho = DensityMatrix.from_spec(InitialStateSpec.neel(4))
    noise = NoiseModel(depolarizing(0.0013), depolarizing(0.013))
    tracer.hooks["sim.evolve_noisy"]((step, rho, noise), {}, None)
    extras = probe.extras()
    assert set(extras) == {
        "charges.terms",
        "circuit.gates_per_step",
        "circuit.cnots_per_step",
        "noise.channel_applications_per_step",
        "noise.channel_s_per_step",
        "measure.cover_words.Q1plus",
        "measure.cover_redundancy",
    }
    assert extras["charges.terms"] == len(charge)
    assert extras["circuit.cnots_per_step"] == step.cnot_count() == 16
    assert extras["noise.channel_applications_per_step"] == 2 * 16 + len(step.gates) - 16

"""The seams between the package's modules.

A module reads no ``_``-prefixed name of another package module, and every
jump-process batch outside ``lockstep`` runs through its one entry,
``lockstep.jump_ensemble``.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import pytest

from epirare import (
    Duration,
    FinalSize,
    ReedFrostParams,
    SeedSpec,
    ce_estimate,
    cmc,
    ibps_estimate,
    is_estimate,
    lockstep,
    temporal_split_estimate,
)
from epirare.cli import main
from test_golden import HIV, SIR

SRC = Path(__file__).resolve().parents[1] / "src" / "epirare"
PACKAGE = "epirare"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(source: str, own: str, modules: set[str]) -> list[str]:
    """Each ``_``-prefixed name that the module ``own``, given as its
    ``source``, imports from another package module of ``modules`` or reads
    as ``module._name``, as "module._name"."""
    found = []
    # local name -> the package module it is bound to
    bound: dict[str, str] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module == PACKAGE or (node.module or "").startswith(PACKAGE + "."):
                module = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if module is None and alias.name in modules:
                    # ``from . import lockstep``
                    bound[alias.asname or alias.name] = alias.name
                elif module != own and _private(alias.name):
                    found.append(f"{module or '__init__'}.{alias.name}")
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and bound.get(node.value.id, own) != own and _private(node.attr)):
            found.append(f"{bound[node.value.id]}.{node.attr}")
    return found


def test_the_layering_check_sees_both_forms():
    source = (
        "from . import lockstep\n"
        "from .estimators import Estimate, _ensemble_fn\n"
        "from epirare.events import _hidden\n"
        "from ._own import __version__\n"
        "lockstep._stop(None)\n"
        "lockstep.sir_ensemble\n"
        "_ensemble_fn._private\n"
    )
    modules = {"lockstep", "estimators", "events", "splitting"}
    assert _private_reads(source, "splitting", modules) == [
        "estimators._ensemble_fn", "events._hidden", "lockstep._stop",
    ]
    # a module's own private names are its own to read
    assert _private_reads("from . import lockstep\nlockstep._CHUNK\n", "lockstep", modules) == []


def test_no_module_reads_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    modules = {path.stem for path in paths}
    assert {"cli", "estimators", "lockstep", "splitting"} <= modules
    found = {
        path.stem: reads for path in paths
        if (reads := _private_reads(path.read_text(encoding="utf-8"), path.stem, modules))
    }
    assert found == {}


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of the jump engines' calls made inside and outside the entry,
    and of the entry's own calls."""
    calls = {"entry": 0, "inside": 0, "outside": 0}
    depth = [0]
    engines = {name: getattr(lockstep, name) for name in ("sir_ensemble", "hiv_ensemble")}
    # an engine bound under a module's own name would bypass the patch below
    for name, module in sys.modules.items():
        if name.startswith(PACKAGE + ".") and module is not lockstep:
            assert not any(
                value is engine for value in vars(module).values() for engine in engines.values()
            ), name
    entry = lockstep.jump_ensemble

    def counted_entry(*args, **kwargs):
        calls["entry"] += 1
        depth[0] += 1
        try:
            return entry(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted(engine):
        def call(*args, **kwargs):
            calls["inside" if depth[0] else "outside"] += 1
            return engine(*args, **kwargs)

        return call

    for name, engine in engines.items():
        monkeypatch.setattr(lockstep, name, counted(engine))
    monkeypatch.setattr(lockstep, "jump_ensemble", counted_entry)
    return calls


SIMULATE = ["--lam", "0.12", "--gamma", "1", "--scaling", "unscaled", "--s0", "9", "--i0", "1"]
RUNS = {
    "cmc-sir": lambda tmp: cmc(SIR, FinalSize(n_c=16), 40, SeedSpec(1)),
    "cmc-hiv": lambda tmp: cmc(HIV, Duration(2.0), 40, SeedSpec(2)),
    "is": lambda tmp: is_estimate(
        SIR, FinalSize(n_c=16), dataclasses.replace(SIR, lam=0.05), 40, SeedSpec(3)
    ),
    "ce": lambda tmp: ce_estimate(SIR, FinalSize(n_c=16), 40, 3, SeedSpec(4)),
    "ibps-sample": lambda tmp: ibps_estimate(
        SIR, FinalSize(n_c=16), n_particles=20, keep_fraction=0.5, seed=SeedSpec(5),
    ),
    "ibps": lambda tmp: ibps_estimate(
        HIV, FinalSize(n_c=18), n_particles=20, keep_fraction=0.5, seed=SeedSpec(6),
        conditional_sample=False,
    ),
    "temporal": lambda tmp: temporal_split_estimate(
        HIV, 2.0, n_particles=20, keep_count=10, seed=SeedSpec(7)
    ),
    "simulate": lambda tmp: main(["simulate", *SIMULATE, "--out", str(tmp / "path.csv")]),
    "fig2": lambda tmp: main(["fig2", "--replicates", "50", "--out", str(tmp / "fig2.csv")]),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_every_engine_call_goes_through_the_entry(engine_calls, tmp_path, run):
    result = run(tmp_path)
    assert not isinstance(result, int) or result == 0  # a command's exit code
    assert engine_calls["outside"] == 0
    assert engine_calls["inside"] == engine_calls["entry"] > 0


def test_the_entry_takes_only_jump_process_models():
    rng = SeedSpec(8).generator()
    with pytest.raises(TypeError, match="no jump engine"):
        lockstep.jump_ensemble(ReedFrostParams(q=0.9, s0=5, i0=1), 10, rng)
    with pytest.raises(TypeError, match="with a base law"):
        lockstep.jump_ensemble(HIV, 10, rng, base=SIR)

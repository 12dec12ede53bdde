"""Golden pins for the event-driven simulator.

``tests/data/sim_golden.json`` (written by ``tools/gen_sim_golden.py``)
holds, for every machine model crossed with every server side, the
makespan and a SHA-256 of the full :class:`SimulationResult`.  Any
change to event order, random draws, accounting or trace records
shows up here as drift.  The fixture is never regenerated to make a
refactor pass.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "gen_sim_golden.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("gen_sim_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_script()
FIXTURE = json.loads(golden.FIXTURE.read_text())
EXPECTED = {entry["id"]: entry for entry in FIXTURE["cells"]}
CELLS = golden.cells()


def test_fixture_covers_every_cell():
    assert [c["id"] for c in CELLS] == list(EXPECTED)
    assert len(CELLS) == len(golden.MACHINES) * len(golden.SERVERS)


@pytest.mark.parametrize("cell", CELLS, ids=[c["id"] for c in CELLS])
def test_simulation_matches_golden(cell):
    assert golden.pin(cell) == EXPECTED[cell["id"]]


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_golden_is_hash_seed_independent(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

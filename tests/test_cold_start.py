"""Cold start: networkx and numpy load only on the paths that call them.

Each check runs in a fresh interpreter, because by the time an
in-process test runs, other tests have already imported both.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import api
from repro.core.io import dag_from_dict, dag_to_dict
from repro.families.butterfly_net import butterfly_chain
from repro.families.prefix import prefix_chain

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
HEAVY = ("networkx", "numpy")


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )


def _run_script(script: str) -> dict:
    return json.loads(_run(["-c", textwrap.dedent(script)]).stdout)


def test_package_facade_service_and_cli_import_light():
    loaded = _run_script(f"""
        import json, sys
        import repro, repro.api, repro.service, repro.cli
        print(json.dumps([m for m in sys.modules
                          if m.split(".")[0] in {HEAVY!r}]))
    """)
    assert loaded == []


def test_cli_schedule_mesh_imports_light():
    proc = _run(["-X", "importtime", "-m", "repro", "schedule", "mesh", "6"])
    assert "E(t):" in proc.stdout
    imported = {
        line.rsplit("|", 1)[-1].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro" in imported
    assert imported.isdisjoint(HEAVY)


@pytest.mark.parametrize("build,size", [(butterfly_chain, 3), (prefix_chain, 8)])
def test_bare_dag_loads_networkx_only_to_recognize(build, size):
    wire = dag_to_dict(build(size).dag)
    out = _run_script(f"""
        import json, sys
        from repro import api
        from repro.core.io import dag_from_dict
        dag = dag_from_dict({wire!r})
        before = "networkx" in sys.modules
        res = api.schedule(dag)
        print(json.dumps({{
            "before": before,
            "after": "networkx" in sys.modules,
            "kind": res.kind,
            "profile": list(res.profile),
        }}))
    """)
    assert out["before"] is False
    assert out["after"] is True
    assert out["kind"] == "composed"
    assert out["profile"] == list(api.schedule(dag_from_dict(wire)).profile)


def test_networkx_interop_round_trips():
    out = _run_script("""
        import json
        from repro.core import ComputationDag
        from repro.families.mesh import out_mesh_dag
        dag = out_mesh_dag(3)
        back = ComputationDag.from_networkx(dag.to_networkx())
        relabeled = ComputationDag(
            arcs=[(str(u), str(v)) for u, v in dag.arcs])
        print(json.dumps({
            "round_trip": back == dag and back.name == dag.name,
            "isomorphic": dag.is_isomorphic_to(relabeled),
            "not_isomorphic": dag.is_isomorphic_to(dag.dual()),
        }))
    """)
    assert out == {
        "round_trip": True, "isomorphic": True, "not_isomorphic": False,
    }


@pytest.mark.parametrize("access", [
    "import repro; mod = repro.compute.scan",
    "from repro import compute; mod = compute.scan",
])
def test_compute_resolves_lazily(access):
    out = _run_script(f"""
        import json, sys
        import repro
        before = "numpy" in sys.modules
        {access}
        print(json.dumps([before, mod.__name__, "numpy" in sys.modules]))
    """)
    assert out == [False, "repro.compute.scan", True]

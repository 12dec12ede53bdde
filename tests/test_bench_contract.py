"""The names the end-to-end benchmark in ``perfbench/`` binds in the
program.

perfbench wraps functions by module and attribute name
(``perfbench/spans.py`` ``SITES``) and clears the certificate store
through two module-level getters; a rename in ``src/`` would make its
wrappers fail to install or its runs start warm.  This test reads
perfbench and changes nothing in it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SITES


@pytest.mark.parametrize("name,module,owner,attr", _sites())
def test_span_site_resolves(name, module, owner, attr):
    target = importlib.import_module(module)
    if owner is not None:
        target = inspect.getattr_static(target, owner)
    # raises AttributeError when the site was renamed or moved
    inspect.getattr_static(target, attr)


@pytest.mark.parametrize("module,getter", [
    ("repro.core.certify", "global_block_library"),
    ("repro.core.profile_cache", "global_profile_cache"),
])
def test_store_getter_clears(module, getter):
    store = getattr(importlib.import_module(module), getter)()
    assert callable(store.clear)

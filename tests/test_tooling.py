"""The benchmark's traced names exist in the package.

``perfbench/spans.py`` rebinds each ``(module, attr)`` of its
``TARGETS`` with ``getattr`` and no default, so a name moved out of the
package would crash every traced run rather than read 0.
"""

import importlib
import importlib.util
import os

import pytest

_SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(modname, attr) for modname, attr, *_ in spans.TARGETS]


@pytest.mark.parametrize("modname, attr", _targets())
def test_every_traced_name_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))

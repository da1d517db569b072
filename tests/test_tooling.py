"""The benchmark's traced and called names, and every export, exist.

``perfbench/spans.py`` rebinds each ``(module, attr)`` of its
``TARGETS`` with ``getattr`` and no default, so a name moved out of the
package would crash every traced run rather than read 0. The workloads
of ``perfbench/workloads.py`` call the package through module
attributes (``catalog.run``, ``rings.FusionRing.from_labels``), so a
name that stopped resolving would fail their operations. Every name a
module lists in ``__all__`` resolves too, so a moved or deleted
function cannot stay exported. A fresh import of the command line
loads no scipy, so the benchmark's cold starts do not pay for it. Every
``tests/<file>.py::<name>`` that README.md or a module under ``src/``
cites still names a function or class in that file.
"""

import ast
import glob
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import orbifusion

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PERFBENCH = os.path.join(_ROOT, "perfbench")


def _targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(_PERFBENCH, "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(modname, attr) for modname, attr, *_ in spans.TARGETS]


@pytest.mark.parametrize("modname, attr", _targets())
def test_every_traced_name_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


def _workload_calls():
    with open(os.path.join(_PERFBENCH, "workloads.py"), encoding="utf-8") as f:
        text = f.read()
    chains = re.findall(
        r"(?<![\w.])((?:catalog|fileio|graphs|orbifold|rings|su3)(?:\.[A-Za-z_]\w*)+)", text
    )
    return sorted(set(chains))


def test_the_workloads_read_the_names_that_matter():
    calls = _workload_calls()
    for chain in (
        "catalog.chain_graph",
        "graphs.fold_graph",
        "graphs.induced_graph_symmetry",
        "orbifold.orbifold_sectors",
        "su3.su3_ring",
        "rings.FusionRing.from_labels",
        "orbifold.OrbifoldInput.make",
        "graphs.BipartiteGraph.from_edges",
    ):
        assert chain in calls


@pytest.mark.parametrize("chain", _workload_calls())
def test_every_name_the_workloads_call_resolves(chain):
    modname, *attrs = chain.split(".")
    obj = importlib.import_module(f"orbifusion.{modname}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def _exporting_modules():
    names = ["orbifusion"] + [
        f"orbifusion.{m.name}" for m in pkgutil.iter_modules(orbifusion.__path__)
    ]
    return [n for n in names if hasattr(importlib.import_module(n), "__all__")]


@pytest.mark.parametrize("modname", _exporting_modules())
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(module, name), name


def test_importing_the_command_line_loads_no_scipy():
    # the sparse associativity scan imports scipy when it runs; a module
    # level import anywhere under the cli would cost every cold start
    # about 0.3 s
    src = os.path.dirname(os.path.dirname(orbifusion.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys, orbifusion.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _test_citations():
    paths = [os.path.join(_ROOT, "README.md")]
    paths += sorted(glob.glob(os.path.join(_ROOT, "src", "**", "*.py"), recursive=True))
    cited = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            cited.update(re.findall(r"tests/(\w+\.py)::(\w+)", f.read()))
    return sorted(cited)


def test_the_documents_cite_tests():
    # so that a changed citation style cannot leave the check below empty
    assert len(_test_citations()) >= 9


@pytest.mark.parametrize("filename, name", _test_citations())
def test_every_cited_test_name_resolves(filename, name):
    with open(os.path.join(_ROOT, "tests", filename), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert name in defined

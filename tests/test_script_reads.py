"""Every muonlab module attribute that the scripts under ``benchmarks/`` and
``perfbench/`` read exists.

Tier-1 runs neither ``benchmarks/bench.py`` nor the perfbench workloads, so a
deleted or renamed entry point would otherwise break them silently.  The reads
are found by an AST scan: ``mod.name`` loads and ``getattr(mod, "name")``
without a default, where ``mod`` is bound by ``import muonlab`` or
``from muonlab import ...``, and the names a ``from muonlab.<module> import``
takes.  A ``getattr`` with a default or a computed name is left out: those
scripts read it only where it exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("benchmarks/*.py"), *ROOT.glob("perfbench/*.py")])


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def module_reads(source: str) -> list:
    """(line, module, attribute) of each read of a muonlab module attribute
    in ``source``.  Import bindings count for the whole file, wherever the
    import statement stands."""
    tree = ast.parse(source)
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "muonlab":
                    name = alias.asname or "muonlab"
                    modules[name] = alias.name if alias.asname else "muonlab"
        elif (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
              and node.module.split(".")[0] == "muonlab"):
            for alias in node.names:
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                else:
                    reads.append((node.lineno, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            reads.append((node.lineno, modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) == 2 and not node.keywords
              and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            reads.append((node.lineno, modules[node.args[0].id], node.args[1].value))
    return reads


def missing(reads: list) -> list:
    return sorted((line, module, attr) for line, module, attr in reads
                  if not hasattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_read_attribute_exists(path):
    assert missing(module_reads(path.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_the_scripts_reads():
    reads = {(module, attr) for path in SCRIPTS
             for _, module, attr in module_reads(path.read_text(encoding="utf-8"))}
    assert {("muonlab.linalg", "polar_exact_stack"), ("muonlab.norms", "primal_norm_stack"),
            ("muonlab.harness", "SUITES"), ("muonlab.counterexample", "KinkyFunction"),
            ("muonlab.optim", "run")} <= reads


def test_the_scan_reports_a_missing_attribute():
    source = """
import muonlab
import muonlab.optim as opt
from muonlab import counterexample as cex, linalg
from muonlab.norms import primal_norm, no_such_norm

def f(A):
    return (linalg.no_such_kernel(A), getattr(cex, "KinkyFunction"), cex.no_such_name,
            getattr(linalg, "gone", None), opt.no_such_rule, muonlab.__file__)
"""
    assert missing(module_reads(source)) == [
        (5, "muonlab.norms", "no_such_norm"), (8, "muonlab.counterexample", "no_such_name"),
        (8, "muonlab.linalg", "no_such_kernel"), (9, "muonlab.optim", "no_such_rule")]

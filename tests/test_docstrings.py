"""Every Sphinx cross reference in the package's docstrings names a real object."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from functools import reduce
from types import SimpleNamespace

import pytest

import predrepo

MODULES = ["predrepo"] + [m.name for m in pkgutil.iter_modules(predrepo.__path__, "predrepo.")]
REFERENCE = re.compile(r":(?:func|meth|class|data|mod):`~?\.?([\w.]+)`")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def references(module) -> list[tuple[object, str]]:
    """(enclosing class or None, name) of every reference in the module's docstrings."""
    out = []

    def visit(node, cls):
        if isinstance(node, DOCUMENTED):
            out.extend((cls, name) for name in REFERENCE.findall(ast.get_docstring(node) or ""))
        for child in ast.iter_child_nodes(node):
            visit(child, getattr(cls or module, child.name) if isinstance(child, ast.ClassDef)
                  else cls)

    visit(ast.parse(inspect.getsource(module)), None)
    return out


def resolve(name: str, scopes):
    """The object ``name``, dotted or not, names from the first scope that has it, or None."""
    for scope in scopes:
        obj = reduce(lambda o, part: getattr(o, part, None), name.split("."), scope)
        if obj is not None:
            return obj
    return None


def unresolved(module) -> list[str]:
    """The references of ``module`` that name nothing: each is looked up in its
    enclosing class, then in the module, then in the package, named or not."""
    package = (predrepo, SimpleNamespace(predrepo=predrepo))
    return [name for cls, name in references(module)
            if resolve(name, [s for s in (cls, module) if s is not None] + list(package)) is None]


@pytest.mark.parametrize("name", MODULES)
def test_every_reference_resolves(name):
    assert unresolved(importlib.import_module(name)) == []


def test_the_resolver_finds_references_and_rejects_a_wrong_name():
    assert all(references(importlib.import_module(name))
               for name in ("predrepo.ensemble", "predrepo.metrics", "predrepo.store"))
    assert resolve("StackLoss.check", [predrepo.metrics]) is predrepo.metrics.StackLoss.check
    assert resolve("predrepo.store", [SimpleNamespace(predrepo=predrepo)]) is predrepo.store
    assert resolve("StackLoss.no_such_method", [predrepo.metrics, predrepo]) is None

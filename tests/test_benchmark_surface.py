"""The names the benchmark harness (perfbench/) reaches in relbc.

perfbench imports public names from relbc, calls them and methods on
them, and patches CheatStrategy methods through the class __dict__; a
name that leaves the package, or a signature that no longer takes one of
its calls, would break its runs.  These checks read perfbench's
source, so they run without its dependencies.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import relbc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _imported_from_relbc(tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "relbc"
            and node.level == 0 for alias in node.names}


def test_perfbench_sources_are_found():
    assert {"instrument.py", "probes.py", "workloads.py"} \
        <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_perfbench_imports_and_attributes_are_public(path):
    # every `from relbc import ...` name is in relbc.__all__, and every
    # attribute read off such a name (DetStrategy.random, .zeros,
    # GameDist.uniform, ...) exists
    tree = ast.parse(path.read_text())
    names = _imported_from_relbc(tree)
    assert names <= set(relbc.__all__), names - set(relbc.__all__)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in names):
            assert hasattr(getattr(relbc, node.value.id), node.attr), \
                f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_perfbench_calls_bind_to_relbc_signatures(path):
    # every call of an imported name, or of an attribute read off one,
    # passes a positional count and keyword names its target accepts
    tree = ast.parse(path.read_text())
    names = _imported_from_relbc(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target = getattr(relbc, func.id)
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id in names):
            target = getattr(getattr(relbc, func.value.id), func.attr)
        else:
            continue
        try:
            inspect.signature(target).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{node.lineno} {ast.unparse(func)}: {exc}")


def test_perfbench_game_methods_exist():
    # GameDist.mass is read off an instance, which the attribute scan
    # above does not see; the two class methods are named here as well
    assert callable(relbc.GameDist.mass)
    assert callable(relbc.DetStrategy.random)
    assert callable(relbc.DetStrategy.zeros)


def _instrument_constant(name: str):
    tree = ast.parse((PERFBENCH / "instrument.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [name])


def test_perfbench_spanned_methods_are_in_their_class_dict():
    # instrument.Tracer patches each method through cls.__dict__[name]
    spanned = _instrument_constant("SPANNED_METHODS")
    assert spanned
    for layer, cls_name, methods in spanned:
        cls = getattr(importlib.import_module(f"relbc.{layer}"), cls_name)
        for method in methods:
            assert method in cls.__dict__, f"{cls_name}.{method}"


def test_perfbench_op_counter_targets_exist():
    # instrument.OpCounter patches FieldSpec's FIELD_OPS and
    # CheatStrategy.responses through cls.__dict__[name], and rebinds
    # relbc.protocol.verify_values wherever it is bound
    ops = _instrument_constant("FIELD_OPS")
    assert ops
    for op in ops:
        assert op in relbc.FieldSpec.__dict__, f"FieldSpec.{op}"
    assert "responses" in relbc.CheatStrategy.__dict__
    assert inspect.isfunction(importlib.import_module("relbc.protocol")
                              .verify_values)

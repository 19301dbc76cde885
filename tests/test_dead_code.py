"""No functions nothing calls: every module-level def and class of the package
is named somewhere in src/, tests/ or perfbench/ outside its own definition,
and, but for a listed few, somewhere in src/ or perfbench/: the package holds
no API that only the tests use.  No options nothing reads: every TrainConfig
field is read as an attribute in src/ outside the TrainConfig class.  No
switches: no TrainConfig field is a boolean, since each boolean option forks
training into a second configuration that no workload runs, and the parser
has one training configuration."""

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

from mrparse.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mrparse").glob("*.py"))
PROGRAM = sorted({*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")})
SEARCHED = sorted({*PROGRAM, *(ROOT / "tests").rglob("*.py")})
# package definitions that only the tests name, on purpose
TEST_ONLY = ("load_graphs", "denodeify_properties")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names(tree: ast.AST) -> Counter:
    """Identifiers a tree names: variables, attributes, imports and the words
    of its string literals (perfbench names its boundaries by string), but
    not of its docstrings."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            found.update(re.findall(r"\w+", node.value))
    return found


def unnamed_definitions(searched: list[Path], allowed: tuple[str, ...] = ()) -> list[str]:
    """Package definitions, other than the allowed ones, that no file of
    searched names outside the definition itself."""
    everywhere = Counter()
    for path in searched:
        everywhere.update(names(parse(path)))
    unnamed = []
    for path in PACKAGE:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name not in allowed \
                    and everywhere[node.name] - names(node)[node.name] <= 0:
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    return unnamed


def test_every_module_level_definition_is_named_elsewhere():
    unnamed = unnamed_definitions(SEARCHED)
    assert not unnamed, f"defined but never named: {unnamed}"


def test_no_module_level_definition_is_named_only_by_the_tests():
    test_only = unnamed_definitions(PROGRAM, TEST_ONLY)
    assert not test_only, f"named only under tests/: {test_only}"


def attributes_read(tree: ast.AST, skip: str) -> set[str]:
    """Attribute names a tree loads, outside the class named skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_train_config_field_is_read():
    # the range table names its options as strings, not attributes, so an
    # option that only it and the class mention counts as unread
    read = set().union(*(attributes_read(parse(path), "TrainConfig") for path in PACKAGE))
    unread = [f.name for f in dataclasses.fields(TrainConfig) if f.name not in read]
    assert not unread, f"TrainConfig options nothing reads: {unread}"


def test_no_train_config_field_is_a_switch():
    # annotations are strings under `from __future__ import annotations`
    switches = [f.name for f in dataclasses.fields(TrainConfig) if f.type in ("bool", bool)]
    assert not switches, f"TrainConfig boolean switches: {switches}"

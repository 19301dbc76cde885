"""No functions nothing calls: every module-level def and class of the package
is named somewhere in src/, tests/ or perfbench/ outside its own definition,
and, but for a listed few, somewhere in src/ or perfbench/: the package holds
no API that only the tests use."""

import ast
import re
from collections import Counter
from pathlib import Path

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

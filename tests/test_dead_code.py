"""No functions nothing calls: every module-level def and class of the package
is named somewhere in src/, tests/ or perfbench/ outside its own definition,
and, but for a listed few, somewhere in src/ or perfbench/: the package holds
no API that only the tests use.  No options nothing reads: every TrainConfig
field is read as an attribute in src/ outside the TrainConfig class.  No
record fields nothing reads: every field of a package dataclass is read as
an attribute somewhere in src/ or perfbench/ (rules.Rule, a NamedTuple read
by position, is not a dataclass).  No
switches: no TrainConfig field is a boolean, since each boolean option forks
training into a second configuration that no workload runs, and the parser
has one training configuration.  No parameter forms nothing uses: every
defaulted parameter of a package function is passed by some call in src/ or
perfbench/, calls resolved by module so that rules.build_problem and
matcher.build_problem are told apart; a default that every caller keeps is
a constant, and a parameter only the tests set is a second call form.  No
graph record changed in place: Anchor, Token, Node, Edge and Graph are
slotted value dataclasses, not frozen, so src/ and perfbench/ store to no
attribute named like one of their fields and call no object.__setattr__,
but for Node.__post_init__ putting its own anchors in canonical order."""

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

from mrparse.graph import Anchor, Edge, Graph, Node, Token
from mrparse.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mrparse").glob("*.py"))
PROGRAM = sorted({*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")})
SEARCHED = sorted({*PROGRAM, *(ROOT / "tests").rglob("*.py")})
# package definitions that only the tests name, on purpose
TEST_ONLY = ("load_graphs",)


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


def attributes_read(tree: ast.AST, skip: str | None = None) -> set[str]:
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


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with dataclass, called or not, by name
    or as dataclasses.dataclass."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # read anywhere, the class's own methods included, under any receiver:
    # a field whose name nothing loads as an attribute is stored and never used
    read = set().union(*(attributes_read(parse(path)) for path in PROGRAM))
    unread = [f"{path.name} {node.name}.{statement.target.id}"
              for path in PACKAGE for node in parse(path).body
              if isinstance(node, ast.ClassDef) and is_dataclass(node)
              for statement in node.body
              if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
              and statement.target.id not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"


RECORD_FIELDS = {f.name for record in (Anchor, Token, Node, Edge, Graph)
                 for f in dataclasses.fields(record)}


def in_place_stores(tree: ast.AST) -> list[ast.AST]:
    """Stores and deletes of an attribute named like a graph record field, and
    object.__setattr__ calls, outside Node.__post_init__'s self.anchors."""
    post_inits = [method for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "Node"
                  for method in cls.body
                  if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"]
    allowed = {id(node) for method in post_inits for node in ast.walk(method)
               if isinstance(node, ast.Attribute) and ast.unparse(node) == "self.anchors"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load) \
                and node.attr in RECORD_FIELDS and id(node) not in allowed:
            found.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "__setattr__" \
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "object":
            found.append(node)
    return found


def test_no_graph_record_is_changed_in_place():
    # frozen=True guarded this at run time, at the price of object.__setattr__
    # in every construction; plain and augmented assignments count alike
    stores = [f"{path.relative_to(ROOT)}:{node.lineno} {ast.unparse(node)}"
              for path in PROGRAM for node in in_place_stores(parse(path))]
    assert not stores, f"graph record fields stored in place: {stores}"


def test_no_train_config_field_is_a_switch():
    # annotations are strings under `from __future__ import annotations`
    switches = [f.name for f in dataclasses.fields(TrainConfig) if f.type in ("bool", bool)]
    assert not switches, f"TrainConfig boolean switches: {switches}"


def imported_modules(tree: ast.AST) -> dict[str, tuple[str, str | None]]:
    """Local name -> (package module, definition), or (package module, None)
    where the name is the module itself, for what a tree imports from the
    package."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (".".join(filter(None, ("mrparse", node.module))) if node.level
                      else node.module or "")
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "mrparse":
                    found[local] = (alias.name, None)
                elif source.startswith("mrparse."):
                    found[local] = (source.split(".")[1], alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mrparse.") and alias.asname:
                    found[alias.asname] = (alias.name.split(".")[1], None)
    return found


def callee(call: ast.Call, imports: dict, module: str | None):
    """(package module, function name) a call resolves to, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        target = imports.get(func.id)
        if target is not None and target[1] is not None:
            return target
        return (module, func.id) if module is not None else None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        target = imports.get(func.value.id)
        if target is not None and target[1] is None:
            return (target[0], func.attr)
    return None


def unpassed_defaults() -> list[str]:
    """Defaulted parameters of module-level package functions that no call
    in src/ or perfbench/ passes, by position or by keyword."""
    functions = {}
    for path in PACKAGE:
        for node in parse(path).body:
            if isinstance(node, ast.FunctionDef):
                functions[(path.stem, node.name)] = (path.name, node)
    passed = {key: set() for key in functions}
    for path in PROGRAM:
        tree = parse(path)
        module = path.stem if path in PACKAGE else None
        imports = imported_modules(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            key = callee(call, imports, module)
            if key not in functions:
                continue
            args = functions[key][1].args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if any(isinstance(a, ast.Starred) for a in call.args):
                passed[key].update(positional)
            else:
                passed[key].update(positional[:len(call.args)])
            for keyword in call.keywords:
                passed[key].update([keyword.arg] if keyword.arg else
                                   positional + [a.arg for a in args.kwonlyargs])
    unpassed = []
    for key, (filename, node) in functions.items():
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
        unpassed += [f"{filename}:{node.lineno} {node.name}({a.arg}=...)"
                     for a in defaulted if a.arg not in passed[key]]
    return unpassed


def test_every_defaulted_parameter_is_passed():
    unpassed = unpassed_defaults()
    assert not unpassed, f"defaulted parameters no caller passes: {unpassed}"

"""Package hygiene: declared entry points resolve, no module in
``src/pfnet`` or ``tests`` imports a name it never uses, ``src/pfnet``
imports only the standard library, numpy and itself, every parameter of a
``src/pfnet`` function is read, every typed config of ``src/pfnet`` checks
itself when built and holds no mutable container, every public function,
class or method of ``src/pfnet`` has a caller in the package or the
benchmark, and every public module-level constant of ``src/pfnet`` is read
there (no linter is installed, so the checks walk the syntax tree)."""

import ast
import importlib
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_MODULES = sorted((ROOT / "src" / "pfnet").glob("*.py"))
BENCH_MODULES = sorted((ROOT / "pfbench").glob("*.py"))
MODULES = SRC_MODULES + sorted((ROOT / "tests").glob("*.py"))

# public names of src/pfnet, methods included, that nothing in src/pfnet or
# pfbench refers to yet, and the ROADMAP item that is to call them; a name
# leaves this list when it gains a caller or is deleted
AWAITING_CALLER = {
    "train_run": "the run driver trains through it (ROADMAP item 1)",
    "miou": "the run driver's report (ROADMAP item 1)",
    "class_f1": "the run driver's report (ROADMAP item 1)",
    "report_rows": "the run driver's report (ROADMAP item 1)",
    "write_report_csv": "the run driver's report (ROADMAP item 1)",
    "write_report_text": "the run driver's report (ROADMAP item 1)",
    "echo_config": "the run driver records its effective config (ROADMAP item 1)",
    "merge": "the run driver merges per-scene counts (ROADMAP item 1)",
    "read_checkpoint": "bit-exact resume (ROADMAP item 9)",
    "write_checkpoint": "bit-exact resume (ROADMAP item 9)",
}


def test_declared_scripts_resolve():
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_packages(source):
    """Top-level package of every absolute import, at any depth."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    allowed = sys.stdlib_module_names | {"numpy", "pfnet"}
    assert imported_packages(path.read_text()) - allowed == set()


def unread_parameters(source):
    """(line, function, parameter) of each parameter that its function or
    lambda never reads, in its body or a closure there; dunder protocol
    methods such as ``__exit__`` take what the protocol passes."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, name, a.arg) for a in params if a.arg not in read]
    return unread


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def unchecked_configs(source):
    """(line, name) of each ``*Config`` class that is not a
    ``@dataclass(frozen=True)`` with a ``__post_init__``, and of each
    ``.validate()`` call: a config that exists has been checked."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
            frozen = any(
                isinstance(d, ast.Call)
                and getattr(d.func, "id", None) == "dataclass"
                and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
                for d in node.decorator_list
            )
            checked = any(isinstance(n, ast.FunctionDef) and n.name == "__post_init__" for n in node.body)
            if not (frozen and checked):
                found.append((node.lineno, node.name))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "validate":
            found.append((node.lineno, "validate()"))
    return found


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_configs_check_themselves_when_built(path):
    assert unchecked_configs(path.read_text()) == []


def mutable_config_fields(source):
    """(line, field) of each ``*Config`` field annotated ``dict``, ``list``
    or ``set``, or built with ``field(default_factory=...)``: a frozen
    config's fields cannot be reassigned, but such a container can still
    change after the config checked it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Config")):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            ann = stmt.annotation.value if isinstance(stmt.annotation, ast.Subscript) else stmt.annotation
            factory = isinstance(stmt.value, ast.Call) and any(k.arg == "default_factory" for k in stmt.value.keywords)
            if getattr(ann, "id", None) in ("dict", "list", "set") or factory:
                found.append((stmt.lineno, stmt.target.id))
    return found


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_configs_hold_no_mutable_container(path):
    assert mutable_config_fields(path.read_text()) == []


def read_names(paths):
    """Every name or attribute that the modules at ``paths`` load; an
    import or an assignment binds a name without reading it."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return read


def public_names(source):
    """Each public module-level function or class, and each public method
    of a module-level class."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(n.name for n in node.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"))
    return names


def test_every_public_name_has_a_caller():
    defined = set().union(*(public_names(path.read_text()) for path in SRC_MODULES))
    assert defined - read_names(SRC_MODULES + BENCH_MODULES) == set(AWAITING_CALLER)


def public_constants(source):
    """(line, name) of each public name a module-level assignment binds."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("_"):
                        found.append((node.lineno, n.id))
    return found


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_every_public_constant_is_read(path):
    read = read_names(SRC_MODULES + BENCH_MODULES)
    assert [(line, name) for line, name in public_constants(path.read_text()) if name not in read] == []

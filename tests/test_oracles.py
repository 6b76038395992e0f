import ast
from pathlib import Path

import geoineq.oracles

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "geoineq"

# what the oracles may take from the package: the error classes, the
# tract type, and the event column names
_ALLOWED = {
    "errors": None,  # any name
    "geo": {"Tract"},
    "ingest": {"EVENT_COLUMNS"},
}
_FORBIDDEN = {"aggregate", "cohort", "report", "timebins", "metrics"}


def _package_imports(tree):
    """(module, imported names or None) for every import from the
    package; module is None for a bare ``import geoineq``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "geoineq":
                    yield (parts[1] if len(parts) > 1 else None), None
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "geoineq":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield parts[0], {alias.name for alias in node.names}
            else:  # from . import module
                for alias in node.names:
                    yield alias.name, None


def test_oracles_import_no_production_logic():
    tree = ast.parse(Path(geoineq.oracles.__file__).read_text(encoding="utf-8"))
    imports = list(_package_imports(tree))
    assert imports, "the oracles import nothing from the package"
    for module, names in imports:
        assert module not in _FORBIDDEN, module
        assert module in _ALLOWED, module
        allowed = _ALLOWED[module]
        if allowed is not None:
            assert names is not None and names <= allowed, (module, names)


def _public_definitions(tree):
    """(qualified name, name) of every public top-level function and
    class of a module, and of every public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    """Every name a module uses: names, attributes, imported names and
    string constants, since the benchmark's tracer rebinds by string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_package_defines_only_what_its_commands_use():
    # the oracles are test code: what only they use is unused
    modules = [p for p in sorted(_PACKAGE.glob("*.py")) if p.name != "oracles.py"]
    users = [*modules, *sorted((_ROOT / "scripts").glob("*.py")),
             *sorted((_ROOT / "geobench").glob("*.py"))]
    used = {name for p in users for name in _references(ast.parse(p.read_text(encoding="utf-8")))}
    unused = [
        f"{p.stem}.{qualified}"
        for p in modules
        for qualified, name in _public_definitions(ast.parse(p.read_text(encoding="utf-8")))
        if name not in used
    ]
    assert not unused, unused

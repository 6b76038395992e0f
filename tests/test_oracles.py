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


def _unused_imports(tree):
    """The names a module imports and never reads, leaving out
    ``from __future__`` imports and the names its ``__all__`` lists."""
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_package_imports_only_what_it_uses():
    unused = {
        p.name: names
        for p in sorted(_PACKAGE.glob("*.py"))
        if (names := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert not unused, unused


def test_sources_parse_as_python_3_11():
    # pyproject.toml declares requires-python >= 3.11, which a newer
    # interpreter running the tests would not hold the code to
    paths = sorted([*(_ROOT / "src").rglob("*.py"), *(_ROOT / "tests").rglob("*.py")])
    assert paths
    for p in paths:
        ast.parse(p.read_text(encoding="utf-8"), str(p), feature_version=(3, 11))


def test_package_calls_no_fromisoformat():
    # ingest reads every stamp by the one grammar, and the stamp oracle by
    # its own regex; a fromisoformat call would be a second reading in the
    # first, and in the second the very code the oracle checks
    calls = [
        f"{p.name}:{node.lineno}"
        for p in sorted(_PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "fromisoformat" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert not calls, calls


def test_only_the_entry_and_workers_call_gc():
    # one GC policy for a geoineq process: geoineq.__main__ turns
    # collection off, and so does each forked worker, for in-process
    # callers whose GC is on; no other code calls into gc
    calls = set()
    for p in sorted(_PACKAGE.glob("*.py")):
        for top in ast.parse(p.read_text(encoding="utf-8")).body:
            where = getattr(top, "name", None)  # the function or class it is in
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    calls.add((p.name, where, "from gc import"))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "gc"):
                    calls.add((p.name, where, node.attr))
    assert calls == {("__main__.py", None, "disable"), ("report.py", "_worker_main", "disable")}

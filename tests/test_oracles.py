import ast
from pathlib import Path

import geoineq.oracles

# what the oracles may take from the package: the error classes, the
# tract type, and the input grammar that the parsers are checked against
_ALLOWED = {
    "errors": None,  # any name
    "geo": {"Tract"},
    "ingest": {"EVENT_COLUMNS", "_timestamp_to_epoch", "extract_hashtags"},
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

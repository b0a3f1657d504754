"""Every name a module imports is read somewhere in that module.

The package ``__init__`` re-exports what it imports, so it is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "mrsim").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never loaded, with their line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom a import b as c\nos.getcwd()\n") == [
        (1, "math"),
        (3, "c"),
    ]


def test_no_module_has_an_unused_import():
    assert len(MODULES) > 20
    found = {
        f"{p.parent.name}/{p.name}": unused
        for p in MODULES
        if (unused := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}

"""Rules of the package as a whole, read off its source."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "catsset"


def test_the_package_imports_the_standard_library_only():
    # catsset has no dependencies: every import is relative, of the standard library or of catsset
    allowed = sys.stdlib_module_names | {"catsset"}
    imported, outside = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imported += len(names)
            outside += [(path.name, name) for name in names if name.partition(".")[0] not in allowed]
    assert imported and outside == []

"""The package imports nothing outside the standard library, its
parsing modules import none of the group layers, and no module imports
another's private names."""

import ast
import sys
from pathlib import Path

import centrallift


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(centrallift.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_parsing_modules_import_no_group_layer():
    # relative imports only: an absolute import of centrallift fails the
    # test above
    package = Path(centrallift.__file__).parent
    for name in ("words", "presentation"):
        path = package / f"{name}.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported.update([node.module] if node.module else [a.name for a in node.names])
        assert imported.isdisjoint({"engines", "lifting", "oracle"}), (name, imported)


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore is private to its module: another
    # package module may reach it as module._name, but not import it
    package = Path(centrallift.__file__).parent
    imported = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported += [
                    f"{path.name}: {node.module or '.'}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert imported == []

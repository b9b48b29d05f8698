"""Guard against code that only the tests reach: every module-level function
and class under src/ is named somewhere under src/ besides its definition. A
reference implementation that only tests call belongs with the tests."""

import ast
import pathlib

from intentrefine import cli

SRC = pathlib.Path(cli.__file__).parent


def test_every_module_level_definition_is_named_under_src():
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [
            f"{path.name}: {node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert [d for d in defined if d.split(": ")[1] not in named] == []

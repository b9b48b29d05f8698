"""Guard against code that only the tests reach: every module-level function
and class under src/ is named somewhere under src/ besides its definition,
and every module-level constant is read somewhere under src/. A reference
implementation or a table that only tests read belongs with the tests."""

import ast
import pathlib

from intentrefine import cli

SRC = pathlib.Path(cli.__file__).parent


def test_every_module_level_definition_is_named_under_src():
    defined, constants, named, loaded = [], [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(f"{path.name}: {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants += [
                    f"{path.name}: {name.id}"
                    for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                    and not (name.id.startswith("__") and name.id.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                named.add(name)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(name)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert [d for d in defined if d.split(": ")[1] not in named] == []
    assert [c for c in constants if c.split(": ")[1] not in loaded] == []

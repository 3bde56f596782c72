"""Every module of the package uses each name it imports.

The check reads the source with ``ast``: a name an import binds must be
read somewhere in its module (an attribute chain such as ``np.zeros``
reads ``np``). ``__init__.py`` is left out, since its imports are the
package's public names.
"""

import ast
import pathlib

import pytest

import sibsonmi

MODULES = sorted(
    p.name for p in pathlib.Path(sibsonmi.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    path = pathlib.Path(sibsonmi.__file__).with_name(module)
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("import math\nimport numpy as np\n"
              "from .core import Alpha, Joint3\nnp.ones(Joint3)\n")
    assert _unused_imports(source) == ["Alpha", "math"]

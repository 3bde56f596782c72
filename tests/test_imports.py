"""Every module of the package uses each name it imports, and each
error message is raised from one place.

The checks read the source with ``ast``: a name an import binds must be
read somewhere in its module (an attribute chain such as ``np.zeros``
reads ``np``), and no two ``raise`` sites build the same message.
``__init__.py`` is left out, since its imports are the package's public
names and it raises nothing.
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


def _raise_sites(sources: dict) -> dict:
    """``ast.unparse`` of each raised call's first argument, mapped to the
    ``module:line`` sites that raise it."""
    sites: dict = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                key = ast.unparse(node.exc.args[0])
                sites.setdefault(key, []).append((module, node.lineno))
    return {k: [f"{m}:{line}" for m, line in sorted(v)] for k, v in sites.items()}


def test_each_message_has_one_raise_site():
    # a precondition checked in two places drifts apart: one owner per message
    sources = {
        m: pathlib.Path(sibsonmi.__file__).with_name(m).read_text(encoding="utf-8")
        for m in MODULES
    }
    repeated = {k: v for k, v in _raise_sites(sources).items() if len(v) > 1}
    assert repeated == {}


def test_a_repeated_raise_site_is_found():
    source = ("def f(a):\n    if a:\n        raise ValueError(f'bad {a}')\n"
              "    raise TypeError(f'bad {a}')\n")
    assert _raise_sites({"m.py": source}) == {"f'bad {a}'": ["m.py:3", "m.py:4"]}

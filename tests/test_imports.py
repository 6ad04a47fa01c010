"""Every name that a module of ``src/polyode`` imports is used in that
module or exported through its ``__all__``. An import kept only for code
that looks it up from outside (the benchmark tracer wraps some names where
they are imported) carries ``# noqa: F401`` on its line. Every private
module-level name (``_x``, not a dunder) is read somewhere in the package,
and every public one there or in the benchmark harness (``perfbench/``).
The modules import one another in one layered order, and the integrator
reads nothing of the closed forms it is used to check. No module calls a
numpy reduction through its Python wrapper outside a ``raise``. Only
``polysys`` names ``factor_indices``: the factor layout of a basis is its
own."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polyode"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name of ``source`` that is neither
    read as a name, listed in ``__all__``, nor on a ``# noqa: F401`` line."""
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,  # noqa: F401\n"
        "    inf,\n"
        ")\n"
        "import os.path\n"
        "__all__ = ['pi']\n"
        "x = os.path.join('a')\n"
    )
    assert unused_imports(source) == ["2: np", "6: inf"]


# numpy's reductions that go through a Python wrapper before their ufunc:
# the ndarray methods, and np.any, np.all, np.max, np.min (np.sum, np.prod).
WRAPPED_REDUCTIONS = {"any", "all", "max", "min", "sum", "prod"}


def wrapped_reductions(source: str) -> list[str]:
    """``line: call`` for each call of a ``WRAPPED_REDUCTIONS`` attribute in
    ``source`` outside a ``raise`` statement, in source order. The ufunc's
    own ``reduce`` (``np.logical_or.reduce``, ``np.maximum.reduce``, ...)
    gives the same bits without the wrapper; a message built while raising
    runs once and may use either."""
    tree = ast.parse(source)
    raised = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise)
              for node in ast.walk(stmt)}
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in WRAPPED_REDUCTIONS and id(node) not in raised
    ]
    calls.sort(key=lambda node: (node.lineno, node.func.end_col_offset))
    return [f"{node.lineno}: {ast.unparse(node.func)}" for node in calls]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_wrapped_reductions(path):
    assert wrapped_reductions(path.read_text()) == []


def test_the_check_flags_a_wrapped_reduction():
    source = (
        "import numpy as np\n"
        "def check(x):\n"
        "    if x.any() or np.all(x):\n"
        "        raise ValueError(f'{x.max()} {np.min(x)}')\n"
        "    top = np.maximum.reduce(x, axis=None)\n"
        "    return max(top, 0) + x.sum(axis=0).prod()\n"
    )
    assert wrapped_reductions(source) == [
        "3: x.any", "3: np.all", "6: x.sum", "6: x.sum(axis=0).prod",
    ]


def names_read(sources) -> set[str]:
    """The names that the modules ``sources`` read: loads as a name, looks
    up as an attribute or imports."""
    read = set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_names(sources: dict[str, str], checked, readers=()) -> list[str]:
    """``module: name`` for each name that a module of ``sources`` defines at
    module level (a def, class or assignment target), for which ``checked``
    holds, and that no module of ``sources`` or ``readers`` reads."""
    read = names_read([*sources.values(), *readers])
    return [
        f"{module}: {name}"
        for module, source in sources.items()
        for name in module_level_names(ast.parse(source))
        if checked(name) and name not in read
    ]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (``_x``, not a dunder) of ``sources`` that none of
    its modules reads."""
    return dead_names(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def dead_public_names(sources: dict[str, str], readers=()) -> list[str]:
    """The public names of ``sources`` that no module of ``sources`` or
    ``readers`` reads. A package's ``__init__`` imports count as reads, so a
    name in ``__all__`` passes."""
    return dead_names(sources, lambda name: not name.startswith("_"), readers)


def module_level_names(tree: ast.Module) -> list[str]:
    """The names a module defines at module level, in order: defs, classes
    and assignment targets, not the names it imports."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_no_dead_private_names():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_the_check_flags_a_dead_private_name():
    sources = {
        "a.py": (
            "import b\n"
            "from c import _imported\n"
            "_LIMIT: int = 3\n"
            "_left, _used = 1, 2\n"
            "__all__ = ['run']\n"
            "def run():\n"
            "    return _helper()\n"
            "def _helper():\n"
            "    return b._attr + _used + _imported + _LIMIT\n"
            "def _free_coefficients():\n"
            "    pass\n"
            "class _Spare:\n"
            "    pass\n"
        ),
        "b.py": "_attr = 1\n_unread = None\n",
    }
    assert dead_private_names(sources) == [
        "a.py: _left",
        "a.py: _free_coefficients",
        "a.py: _Spare",
        "b.py: _unread",
    ]


def test_no_dead_public_names():
    """Every public name of the package is read by one of its modules, or by
    the benchmark harness: nothing in the library serves only its tests."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    harness = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert dead_public_names(sources, harness) == []


def test_the_check_flags_a_dead_public_name():
    sources = {
        "__init__.py": "from .a import run\n__all__ = ['run']\n",
        "a.py": (
            "LIMIT = 3\n"
            "_private = 1\n"
            "def run():\n"
            "    return LIMIT\n"
            "def read_back():\n"
            "    pass\n"
            "class Traced:\n"
            "    pass\n"
            "SPARE, WRAPPED = 1, 2\n"
        ),
        "b.py": "def helper():\n    pass\n",
    }
    harness = ["import a\na.Traced()\nfrom a import WRAPPED\n"]
    assert dead_public_names(sources, harness) == [
        "a.py: read_back",
        "a.py: SPARE",
        "b.py: helper",
    ]
    assert dead_public_names(sources) == [
        "a.py: read_back",
        "a.py: Traced",
        "a.py: SPARE",
        "a.py: WRAPPED",
        "b.py: helper",
    ]


# The package's layers, lowest first: a module imports only modules before it.
LAYERS = [
    "errors",
    "polysys",
    "trajectory",
    "constraints",
    "closedform",
    "periodic",
    "generate",
    "oracle",
    "serialization",
    "demo",
    "cli",
]


def relative_imports(source: str) -> list[str]:
    """The modules that ``source`` imports as ``from .module import ...``."""
    return [
        node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    ]


def test_every_module_imports_only_earlier_layers():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert sorted(LAYERS) == modules
    for i, module in enumerate(LAYERS):
        later = LAYERS[i:]
        imported = relative_imports((PACKAGE / f"{module}.py").read_text())
        assert [name for name in imported if name in later] == [], module


def test_the_integrator_reads_nothing_of_the_closed_forms():
    """The oracle sees only the right-hand sides: the body of
    ``oracle.integrate`` reads no name that ``closedform`` or ``periodic``
    defines, as a name or as an attribute."""
    closed_forms = set()
    for module in ("closedform", "periodic"):
        closed_forms.update(module_level_names(ast.parse((PACKAGE / f"{module}.py").read_text())))
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    (integrate,) = [node for node in tree.body if getattr(node, "name", None) == "integrate"]
    read = {node.id for node in ast.walk(integrate) if isinstance(node, ast.Name)}
    read |= {node.attr for node in ast.walk(integrate) if isinstance(node, ast.Attribute)}
    assert read & closed_forms == set()


def names_outside(sources: dict[str, str], name: str, owner: str) -> list[str]:
    """The modules of ``sources`` other than ``owner`` whose code names
    ``name``: as a name, an attribute, an imported name or a def."""
    found = []
    for module, source in sources.items():
        named = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.name, node.asname))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.add(node.name)
        if module != owner and name in named:
            found.append(module)
    return found


def test_only_polysys_names_factor_indices():
    """Every other module reads a basis's ``factors``, which polysys builds
    once per basis; none lays out factors of its own."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert names_outside(sources, "factor_indices", "polysys.py") == []


def test_the_check_flags_a_name_outside_its_module():
    sources = {
        "polysys.py": "def factor_indices(e):\n    pass\n",
        "a.py": "from .polysys import factor_indices as layout\n",
        "b.py": "from . import polysys\nf = polysys.factor_indices\n",
        "c.py": "def factor_indices():\n    pass\n",
        "d.py": "def f(basis):\n    'Not factor_indices.'\n    return basis.factors\n",
    }
    assert names_outside(sources, "factor_indices", "polysys.py") == ["a.py", "b.py", "c.py"]

"""Static checks on the package sources that stand in for a lint step.

An import is unused when the name it binds never appears as a name in
the module and is not listed in ``__all__``; this scan covers the test
modules too. ``from __future__`` imports bind nothing, so they are
skipped. An ``__all__`` entry is stale when the module binds no such
name at its top level, so ``from module import *`` would fail. A
module-private top-level function, class or assignment (a name with one
leading underscore) is orphaned when nothing in its own module reads it.
JSON has one codec and one writer: no class but ``ioutil.JsonRecord``
defines ``to_json_dict`` or ``from_json_dict``, no module but ``ioutil``
calls ``json.dumps``, and no module but ``ioutil`` decodes a JSON number:
none imports, calls or passes on ``float_from_json``, so a codec made of
module functions cannot hide from the method scan. CSV has one reader and
one writer: no module but ``ioutil`` splits a line into fields
(``.split(",")``) or joins fields or lines (``",".join``, ``"\\n".join``).
SVG has one element writer: no string literal in ``figures`` outside
``figures._tag`` opens or closes an element (``<`` or ``</`` followed by
a letter, where an f-string's replacement fields count as letters). An
input rule has one owner module: no ``InvalidInputError`` message text,
with its f-string replacement fields written ``{}``, is raised from two
modules. The eigen-form belongs to the search: no module but ``smoother``
and ``srm`` names ``Spectrum``, ``decompose``, ``signal_scale_scores`` or
``spectral_weights``, as a name, an attribute or an import. The structure
grids have one owner: no module but ``srm`` calls ``StructureGrid``,
``build_se_grid``, ``build_sdof_grid``, ``_log_spaced`` or ``geomspace``,
so only ``srm`` builds scale grids. The
uniform-grid route has one owner: no module but ``smoother`` calls
``sliding_window_view``, ``toeplitz``, ``solve_toeplitz``, ``_uniform`` or
``_fold_blocks``, by name or attribute, and no module, ``smoother``
included, calls a dense ``toeplitz``: the uniform-grid route forms no n x
n matrix. SciPy has one owner: no module but ``smoother`` imports
``scipy`` or names it, as a name or an attribute, and no module imports it
outside a function body, so only a command that solves a system (``fit``,
``plot --kind predictions``) loads it. No module names ``lapack``, as a
name, an attribute or an imported name: every solve goes through numpy's
and scipy.linalg's solvers, which raise LinAlgError, and none through a
LAPACK binding with its own ``info`` protocol.
"""
import ast
import re
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
SOURCES = sorted((TESTS_DIR.parent / "src" / "srmks").glob("*.py"))
TESTS = sorted(TESTS_DIR.glob("*.py"))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _stale_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return [name for name in _exported(tree) if name not in bound]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scanner_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import scipy.linalg\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "x = scipy.linalg.eigh\n"
    )
    assert _unused_imports(source) == ["line 2: math", "line 4: dumps"]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scanner_flags_a_stale_export():
    source = (
        "from json import dumps\n"
        "__all__ = ['dumps', 'f', 'C', 'X', 'gone']\n"
        "def f(): pass\n"
        "class C: pass\n"
        "X: int = 1\n"
    )
    assert _stale_exports(source) == ["gone"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_export_is_bound(path):
    assert _stale_exports(path.read_text()) == []


def _orphaned_privates(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_scanner_flags_an_orphaned_private_name():
    source = (
        "__all__ = ['f']\n"
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "def _helper(): return _USED\n"
        "def _orphan(): pass\n"
        "class _Orphan: pass\n"
        "def f(): return _helper()\n"
    )
    assert _orphaned_privates(source) == ["line 3: _UNUSED", "line 5: _orphan", "line 6: _Orphan"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_orphaned_private_names(path):
    assert _orphaned_privates(path.read_text()) == []


def _json_writers(source: str) -> list[str]:
    """Every use of json.dumps, by attribute or by import; ioutil.json_text is the one writer."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "dumps"
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and any(alias.name == "dumps" for alias in node.names)
        ):
            found.append(f"line {node.lineno}: json.dumps")
    return found


def test_scanner_flags_a_json_writer():
    source = (
        "import json\n"
        "from json import dumps\n"
        "text = json.dumps({}) + json.loads('{}')\n"
    )
    assert _json_writers(source) == ["line 2: json.dumps", "line 3: json.dumps"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "ioutil.py"], ids=lambda path: path.name
)
def test_json_is_written_only_by_ioutil(path):
    assert _json_writers(path.read_text()) == []


def _own_json_codecs(source: str) -> list[str]:
    """Methods to_json_dict/from_json_dict of classes other than ioutil.JsonRecord."""
    tree = ast.parse(source)
    return [
        f"line {method.lineno}: {node.name}.{method.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name != "JsonRecord"
        for method in node.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and method.name in ("to_json_dict", "from_json_dict")
    ]


def test_scanner_flags_a_reintroduced_codec():
    source = (
        "class JsonRecord:\n"
        "    def to_json_dict(self): return {}\n"
        "class Plan(JsonRecord):\n"
        "    seed: int\n"
        "class Params(JsonRecord):\n"
        "    @classmethod\n"
        "    def from_json_dict(cls, d): return cls()\n"
    )
    assert _own_json_codecs(source) == ["line 7: Params.from_json_dict"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_class_has_its_own_json_codec(path):
    assert _own_json_codecs(path.read_text()) == []


def _uses(source: str, names: set[str]) -> list[str]:
    """Every name, attribute or imported name in `names`, called or passed on as in map(f, x)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used = [alias.name for alias in node.names]
        else:
            used = [getattr(node, "id", None), getattr(node, "attr", None)]
        found.extend(f"line {node.lineno}: {name}" for name in used if name in names)
    return found


def test_scanner_flags_a_json_number_decoded_outside_ioutil():
    source = (
        "from .ioutil import float_from_json, json_float\n"
        "sigma_f = float_from_json(d['sigma_f'])\n"
        "values = map(ioutil.float_from_json, (d[key] for key in keys))\n"
        "doc = 'float_from_json(d[key])'\n"
        "text = json_float(sigma_f)\n"
    )
    assert _uses(source, {"float_from_json"}) == [
        "line 1: float_from_json", "line 2: float_from_json", "line 3: float_from_json",
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "ioutil.py"], ids=lambda path: path.name
)
def test_json_numbers_are_decoded_only_by_ioutil(path):
    assert _uses(path.read_text(), {"float_from_json"}) == []


def _csv_line_handlers(source: str) -> list[str]:
    """Every .split(","), ",".join and "\\n".join call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func, args = node.func, node.args
        if func.attr == "split" and [getattr(arg, "value", None) for arg in args] == [","]:
            found.append(f"line {node.lineno}: .split(',')")
        elif func.attr == "join" and getattr(func.value, "value", None) in (",", "\n"):
            found.append(f"line {node.lineno}: {func.value.value!r}.join")
    return found


def test_scanner_flags_csv_line_handling():
    source = (
        "fields = line.split(',')\n"
        "words = line.split()\n"
        "row = ','.join(fields)\n"
        "label = ', '.join(fields)\n"
        "text = '\\n'.join([row, row])\n"
    )
    assert _csv_line_handlers(source) == [
        "line 1: .split(',')", "line 3: ','.join", "line 5: '\\n'.join",
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "ioutil.py"], ids=lambda path: path.name
)
def test_csv_is_read_and_written_only_by_ioutil(path):
    assert _csv_line_handlers(path.read_text()) == []


_ELEMENT_TAG = re.compile(r"</?[A-Za-z]")


def _hand_written_elements(source: str) -> list[str]:
    """String literals outside the writer function _tag that open or close an SVG element."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_tag":
            skipped.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.JoinedStr):
            skipped.update(map(id, node.values))  # read as part of their f-string
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "x" for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if _ELEMENT_TAG.search(text):
            found.append(f"line {node.lineno}: {text!r}")
    return found


def test_scanner_flags_a_hand_written_element():
    source = (
        "def _tag(name, content):\n"
        "    return f'<{name}>{content}</{name}>'\n"
        "bg = '<rect width=\"1\"/>'\n"
        "label = f'<text x=\"{x}\">{label}</text>'\n"
        "head = f'<{name} class=\"g\">'\n"
        "close = '</g>'\n"
        "ok = ['a < b', '<', _tag('g', 'x')]\n"
    )
    assert _hand_written_elements(source) == [
        "line 3: '<rect width=\"1\"/>'",
        "line 4: '<text x=\"x\">x</text>'",
        "line 5: '<x class=\"g\">'",
        "line 6: '</g>'",
    ]


def test_svg_elements_are_written_only_by_the_writer():
    figures = TESTS_DIR.parent / "src" / "srmks" / "figures.py"
    assert _hand_written_elements(figures.read_text()) == []


def _input_rule_messages(source: str) -> set[str]:
    """Texts of the InvalidInputError messages a module raises, f-string fields written {}."""
    texts = set()
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "InvalidInputError"
            and node.exc.args
        ):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr):
            parts = (v.value if isinstance(v, ast.Constant) else "{}" for v in message.values)
            texts.add("".join(parts))
        elif isinstance(message, ast.Constant) and isinstance(message.value, str):
            texts.add(message.value)
    return texts


def _shared_input_rules(sources: dict[str, str]) -> list[str]:
    """Messages raised from more than one module, each with the modules that raise it."""
    owners: dict[str, list[str]] = {}
    for name, source in sources.items():
        for text in _input_rule_messages(source):
            owners.setdefault(text, []).append(name)
    shared = {text: names for text, names in owners.items() if len(names) > 1}
    return sorted(f"{text!r}: {', '.join(names)}" for text, names in shared.items())


def test_scanner_flags_an_input_rule_raised_from_two_modules():
    sources = {
        "a.py": (
            "raise InvalidInputError(f'sigma_n must be nonnegative, got {sigma_n!r}')\n"
            "raise InvalidInputError('count must be at least 1')\n"
            "raise ValueError('t must be finite')\n"
        ),
        "b.py": (
            "if bad:\n"
            "    raise InvalidInputError(f'sigma_n must be nonnegative, got {self.sigma_n:.3g}')\n"
            "raise InvalidInputError('count must be at least 2')\n"
            "raise ValueError('t must be finite')\n"
        ),
    }
    assert _shared_input_rules(sources) == ["'sigma_n must be nonnegative, got {}': a.py, b.py"]


def test_every_input_rule_has_one_owner_module():
    assert _shared_input_rules({path.name: path.read_text() for path in SOURCES}) == []


_EIGEN_FORM = {"Spectrum", "decompose", "signal_scale_scores", "spectral_weights"}


def _eigen_form_names(source: str) -> list[str]:
    """Every name, attribute or imported name of the eigen-form API."""
    return _uses(source, _EIGEN_FORM)


def test_scanner_flags_the_eigen_form_outside_the_search():
    source = (
        "from .smoother import spectral_weights\n"
        "from . import smoother\n"
        "lam = smoother.decompose(base, t).eigenvalues\n"
        "doc = 'weights from a Spectrum'\n"
        "def refit(spectrum: 'Spectrum', decomposed): return spectrum\n"
    )
    assert _eigen_form_names(source) == ["line 1: spectral_weights", "line 3: decompose"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in ("smoother.py", "srm.py")],
    ids=lambda path: path.name,
)
def test_only_the_search_names_the_eigen_form(path):
    assert _eigen_form_names(path.read_text()) == []


_GRID_BUILDERS = {"StructureGrid", "build_se_grid", "build_sdof_grid", "_log_spaced", "geomspace"}


def _named_calls(source: str, names: set[str]) -> list[str]:
    """Every call of a function in `names`, by name or attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_scanner_flags_a_grid_built_outside_srm():
    source = (
        "from .srm import build_se_grid, srm_select\n"
        "grid = build_se_grid((0.1, 1.0), l_range, 3, 4)\n"
        "other = srm.StructureGrid('sdof', bases, scales)\n"
        "result = srm_select(grid, data)\n"
        "doc = 'build_sdof_grid(params, bracket, 30)'\n"
        "scales = np.geomspace(lo, hi, count)\n"
    )
    assert _named_calls(source, _GRID_BUILDERS) == [
        "line 2: build_se_grid", "line 3: StructureGrid", "line 6: geomspace",
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "srm.py"], ids=lambda path: path.name
)
def test_only_srm_builds_structure_grids(path):
    assert _named_calls(path.read_text(), _GRID_BUILDERS) == []


_TOEPLITZ_ROUTE = {"sliding_window_view", "toeplitz", "solve_toeplitz", "_uniform", "_fold_blocks"}


def test_scanner_flags_the_toeplitz_route_outside_smoother():
    source = (
        "from .smoother import _uniform\n"
        "windows = np.lib.stride_tricks.sliding_window_view(a, n)\n"
        "T = scipy.linalg.toeplitz(column)\n"
        "w = solve_toeplitz(column, y)\n"
        "if smoother._uniform(t): even, odd = _fold_blocks(lags)\n"
        "doc = 'toeplitz(column)'\n"
        "K = gram(base, t)\n"
    )
    assert _named_calls(source, _TOEPLITZ_ROUTE) == [
        "line 2: sliding_window_view", "line 3: toeplitz", "line 4: solve_toeplitz",
        "line 5: _uniform", "line 5: _fold_blocks",
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "smoother.py"], ids=lambda path: path.name
)
def test_only_smoother_takes_the_toeplitz_route(path):
    assert _named_calls(path.read_text(), _TOEPLITZ_ROUTE) == []


def test_scanner_flags_a_dense_toeplitz():
    source = (
        "T = scipy.linalg.toeplitz(column)\n"
        "w = scipy.linalg.solve_toeplitz(column, y)\n"
        "fitted = toeplitz(column) @ w\n"
        "doc = 'toeplitz(column) @ w'\n"
        "rows = _toeplitz_rows(column)\n"
    )
    assert _named_calls(source, {"toeplitz"}) == ["line 1: toeplitz", "line 3: toeplitz"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_builds_a_dense_toeplitz(path):
    assert _named_calls(path.read_text(), {"toeplitz"}) == []


def _scipy_uses(source: str) -> list[str]:
    """Every import of scipy and every name or attribute `scipy`, as in smoother.scipy.linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = [getattr(node, "id", None) or getattr(node, "attr", None) or ""]
        found.extend(
            f"line {node.lineno}: {module}" for module in modules
            if module.split(".")[0] == "scipy"
        )
    return found


def test_scanner_flags_scipy_outside_smoother():
    source = (
        "import scipy.linalg\n"
        "from scipy.linalg import lapack\n"
        "w = smoother.scipy.linalg.solve(K, y)\n"
        "doc = 'scipy.linalg.eigh(K)'\n"
        "from . import smoother\n"
        "lam = smoother.decompose(bases, t)\n"
    )
    assert _scipy_uses(source) == [
        "line 1: scipy.linalg", "line 2: scipy.linalg", "line 3: scipy",
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "smoother.py"], ids=lambda path: path.name
)
def test_only_smoother_uses_scipy(path):
    assert _scipy_uses(path.read_text()) == []


def _module_level_scipy_imports(source: str) -> list[str]:
    """Every import of scipy that runs when its module is imported: any outside a function body."""
    tree = ast.parse(source)
    deferred = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            deferred.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in deferred:
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found.extend(f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] == "scipy")
    return found


def test_scanner_flags_a_module_level_scipy_import():
    source = (
        "import numpy as np, scipy.linalg\n"
        "from scipy import linalg\n"
        "try:\n"
        "    import scipy.sparse\n"
        "except ImportError:\n"
        "    pass\n"
        "class Solver:\n"
        "    import scipy\n"
        "    def solve(self, a, b):\n"
        "        import scipy.linalg\n"
        "        return scipy.linalg.solve(a, b)\n"
        "def factor(a):\n"
        "    from scipy.linalg import cholesky\n"
        "    return cholesky(a)\n"
    )
    assert _module_level_scipy_imports(source) == [
        "line 1: scipy.linalg", "line 2: scipy", "line 4: scipy.sparse", "line 8: scipy",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_scipy_at_import_time(path):
    assert _module_level_scipy_imports(path.read_text()) == []


def test_scanner_flags_a_lapack_call():
    source = (
        "import scipy.linalg\n"
        "inverse, info = scipy.linalg.lapack.dtrtri(factor, lower=1)\n"
        "from scipy.linalg import lapack\n"
        "doc = 'scipy.linalg.lapack.dtrtri'\n"
        "inverse = scipy.linalg.solve_triangular(factor, eye, lower=True)\n"
    )
    assert sorted(_uses(source, {"lapack"})) == ["line 2: lapack", "line 3: lapack"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_calls_lapack_directly(path):
    assert _uses(path.read_text(), {"lapack"}) == []

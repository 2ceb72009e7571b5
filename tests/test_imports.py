"""Every import in src/fuzzformer/, tests/ and perfbench/ is used in the
module that makes it, and src/fuzzformer/ holds no code that only the
tests use.

No linter ships with the project, so this walks each module's syntax tree
with the standard library:

* a name bound by ``import``/``from ... import`` must be read (loaded, not
  just assigned to) somewhere in the same module (``__future__`` imports
  are compiler directives and are skipped);
* every top-level function and class, and every non-dunder method,
  defined under src/fuzzformer/ must be named somewhere in src/ or
  perfbench/: as a bare name, an attribute, an imported name or, in
  perfbench/ (whose tracer patches by attribute name), a string.  Test-only
  references go into tests/ oracles instead.  The check matches names, not
  bindings, so it can miss a dead method that shares a name with a used one;
* every ``RunConfig`` field must be read as an attribute somewhere in
  src/fuzzformer/ outside config.py, so no setting goes unread, and every
  field of every other dataclass under src/fuzzformer/ somewhere in src/
  or perfbench/, so no output goes unread.  This too matches names:
  another object's attribute of the same name counts;
* no module of src/fuzzformer/ but data.py touches files on its own: no
  call to ``open`` (as a name or an attribute), no ``.mkdir`` call, no
  ``csv.reader`` or ``csv.DictReader``.  So every text file goes through
  data.py's one CSV dialect and one error policy.  container.py keeps its
  binary ``open``: an archive is bytes, not text;
* no module of src/fuzzformer/ but autodiff.py calls ``parameter``, by
  name or as an attribute (``ad.parameter``).  So every trainable tensor
  is made by the registry ``autodiff.Parameters``, under a name that
  checkpoints store;
* no module of src/fuzzformer/ has a ``global`` statement.  A mode kept
  in a module global leaks between threads (``training.score_split``
  forecasts on several), so modes are context variables instead;
* one function of src/fuzzformer/, ``training.score_split``, builds a
  ``ThreadPoolExecutor`` and calls ``copy_context``.  So every parallel
  pass shares its chunking, its copy of the caller's context and its
  error order;
* one function of src/fuzzformer/, ``training.fit``, builds an ``Adam``
  and calls ``train_step``.  So both learned models train through one
  epoch loop, with one shuffle, one failure report and one best-epoch
  rule.
* one function of src/fuzzformer/, ``encoder.lstm_scan``, calls the
  LSTM kernels ``lstm_forward`` and ``lstm_backward`` (the latter from
  its ``vjp``).  So one place decides, from the autodiff mode, whether a
  forward pass keeps the gate and cell caches.
* one function of src/fuzzformer/, ``training.forecast_bundle``, calls the
  grid writer ``_write_grid``, and it opens no file and builds no
  ``csv.writer`` of its own.  So every bundle table, and every table
  added to the bundle later, is one more grid in one format.
* one function of src/fuzzformer/, ``kernels/arima.py::_lstsq``, calls
  ``svd`` and ``qr``.  So every least-squares stage takes one rank rule.
* no function of src/fuzzformer/ calls ``eigvals`` or ``eig``.  Stationarity
  and invertibility come from the step-down recursion of
  ``kernels/arima.py::companion_stable``, which needs no eigenvalue solver.
* one function of src/fuzzformer/, ``cli._baseline_forecaster`` itself
  (not the per-batch closure it returns), calls
  ``evaluate_arima_windows``.  So ``baseline --method arima`` forecasts
  every window in one pass of full ``ARIMA_CHUNK`` stacks.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from fuzzformer.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
# directory -> a module that must be found in it
DIRS = {
    ROOT / "src" / "fuzzformer": "autodiff.py",
    ROOT / "tests": "test_imports.py",
    ROOT / "perfbench": "run.py",
}
MODULES = sorted(path for directory in DIRS for path in directory.rglob("*.py"))
SRC = ROOT / "src" / "fuzzformer"
# definitions that nothing in src/ or perfbench/ names, each with its reason
# module -> the raw file access it may keep (see ``file_access``)
FILE_ACCESS_OK = {"data.py": {"open", "mkdir", "csv.reader"}, "container.py": {"binary open"}}
UNREFERENCED_OK = {
    ("cli.py", "_Parser.error"): "argparse calls it on a usage error",
    ("autodiff.py", "sigmoid"): "a graph primitive whose gradient acceptance criterion 1 checks",
}
# dataclass fields that nothing in src/ or perfbench/ reads, each with its reason
UNREAD_FIELD_OK = {
    ("data.py", "WindowedDataset.fit_rows"): "acceptance criterion 10 reads it",
}


def unused_imports(source: str):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def definitions(source: str):
    """Top-level function and class names and ``Class.method`` names
    (dunder methods excluded) that a module defines."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{sub.name}"
                for sub in node.body
                if isinstance(sub, defs[:2]) and not sub.name.startswith("__")
            ]
    return names


def references(source: str, strings: bool):
    """Every name a module reads, as a bare name, an attribute or an
    imported name, plus identifier-like string constants when ``strings``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreferenced(modules, readers):
    """(module, name) of each definition in ``modules`` ({module: source})
    that no reader in ``readers`` ([(source, strings)]) names."""
    read = set().union(*(references(source, strings) for source, strings in readers))
    return [
        (module, name)
        for module, source in modules.items()
        for name in definitions(source)
        if name.split(".")[-1] not in read
    ]


def unread_fields(names, sources):
    """Each of ``names`` (``field`` or ``Class.field``) that no source in
    ``sources`` reads as an attribute."""
    read = {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in names if name.split(".")[-1] not in read]


def dataclass_fields(source: str):
    """``Class.field`` of each annotated field of each top-level class that
    a module decorates with ``dataclass`` (bare, called or as an attribute)."""
    names = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            names += [
                f"{node.name}.{sub.target.id}"
                for sub in node.body
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
            ]
    return names


def file_access(source: str):
    """(line, kind) of each raw file access in a module: "open" or, with a
    literal mode holding "b", "binary open"; "mkdir"; "csv.reader" or
    "csv.DictReader", named or imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                mode = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                binary = any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in mode)
                found.append((node.lineno, "binary open" if binary else "open"))
            elif name == "mkdir" and isinstance(func, ast.Attribute):
                found.append((node.lineno, "mkdir"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "csv" and node.attr in ("reader", "DictReader"):
                found.append((node.lineno, f"csv.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found += [(node.lineno, f"csv.{a.name}") for a in node.names if a.name in ("reader", "DictReader")]
    return sorted(found)


def parameter_calls(source: str):
    """Lines of each call of ``parameter``, as a name or an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "parameter" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


@pytest.mark.parametrize("directory", DIRS, ids=lambda d: str(d.relative_to(ROOT)))
def test_modules_found(directory):
    assert directory / DIRS[directory] in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom dataclasses import dataclass, field\n"
        "from stats import rmse, mae\n"
        "x = np.zeros(1)\n@dataclass\nclass A:\n    rmse: float\n    mae = 0.0\n"
    )
    # a field or an assignment of the same name stores it, it does not read the import
    assert unused_imports(source) == [(2, "os"), (4, "field"), (5, "rmse"), (5, "mae")]


def test_src_holds_no_test_only_code():
    sources = {path: path.read_text(encoding="utf-8") for path in MODULES}
    modules = {p.relative_to(SRC).as_posix(): text for p, text in sources.items() if SRC in p.parents}
    readers = [
        (text, False) if SRC in p.parents else (text, True)
        for p, text in sources.items()
        if SRC in p.parents or ROOT / "perfbench" in p.parents
    ]
    assert set(unreferenced(modules, readers)) - set(UNREFERENCED_OK) == set()
    defined = {(module, name) for module, source in modules.items() for name in definitions(source)}
    assert set(UNREFERENCED_OK) <= defined  # no stale entries


def test_checker_flags_a_function_only_tests_use():
    module = (
        "import numpy as np\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def only_tested():\n    return used()\n"
        "class Box:\n    def __init__(self):\n        self.n = 0\n"
        "    def grow(self):\n        self.n += 1\n    def peek(self):\n        return self.n\n"
    )
    caller = "from pkg.mod import used, Box\nBox().grow()\nused()\n"
    bench = "patch(mod, 'peek')\n"
    flagged = unreferenced({"mod.py": module}, [(module, False), (caller, False)])
    assert flagged == [("mod.py", "only_tested"), ("mod.py", "Box.peek")]
    # the benchmark's string names count, the modules' own strings do not
    assert unreferenced({"mod.py": module}, [(module, False), (caller, False), (bench, True)]) == [
        ("mod.py", "only_tested")
    ]
    assert unreferenced({"mod.py": module}, [(module, False), (caller, False), (bench, False)]) == flagged


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix())
def test_files_are_touched_only_through_data_py(path):
    allowed = FILE_ACCESS_OK.get(path.relative_to(SRC).as_posix(), set())
    assert [(line, kind) for line, kind in file_access(path.read_text(encoding="utf-8"))
            if kind not in allowed] == []


def test_file_access_exceptions_are_used():
    for module, kinds in FILE_ACCESS_OK.items():
        assert {kind for _, kind in file_access((SRC / module).read_text(encoding="utf-8"))} == kinds


def test_checker_flags_raw_file_access():
    source = (
        "import csv\nfrom csv import DictReader\nfrom pathlib import Path\n"
        "with open(p, 'w') as fh:\n    pass\n"
        "blob = open(p, mode='rb').read()\n"
        "Path(p).open()\nPath(p).parent.mkdir(parents=True)\n"
        "rows = csv.reader(fh)\nwriter = csv.writer(fh)\n"
        "data.open_output(p, 'w', 'x')\ndata.output_dir(p, 'x')\n"
    )
    # writers and the data.py helpers are fine; each raw access is flagged
    assert file_access(source) == [
        (2, "csv.DictReader"), (4, "open"), (6, "binary open"), (7, "open"), (8, "mkdir"), (9, "csv.reader"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix())
def test_trainable_tensors_are_made_by_the_registry(path):
    calls = parameter_calls(path.read_text(encoding="utf-8"))
    # autodiff.py keeps its call: ``Parameters.new`` makes every tensor with it
    assert (calls != []) == (path.relative_to(SRC).as_posix() == "autodiff.py"), calls


def test_checker_flags_parameter_calls():
    source = (
        "from fuzzformer import autodiff as ad\nfrom fuzzformer.autodiff import parameter\n"
        "w = ad.parameter(np.zeros(2))\nb = parameter([0.0])\n"
        "v = params.new('v', (2,), 2)\nregistry = ad.Parameters(rng)\nn = params.parameters\n"
    )
    assert parameter_calls(source) == [3, 4]


def global_statements(source: str):
    """(line, names) of each ``global`` statement in a module."""
    return [
        (node.lineno, node.names)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    ]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_module_keeps_state_in_globals(path):
    assert global_statements(path.read_text(encoding="utf-8")) == []


def test_checker_flags_global_statements():
    source = (
        "MODE = True\ndef off():\n    global MODE\n    MODE = False\n"
        "def read():\n    return MODE\nclass A:\n    def f(self):\n        global X, Y\n"
    )
    assert global_statements(source) == [(3, ["MODE"]), (9, ["X", "Y"])]


def callers(source: str, callee: str):
    """(line, enclosing function or None) of each call of ``callee`` in a
    module, by name or attribute.  A nested function is named by its
    dotted path from the outermost one (``outer.inner``)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and callee in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append((child.lineno, function))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if function is None else f"{function}.{child.name}")
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return found


def src_callers(callee):
    """(module, function) of each call of ``callee`` in src/fuzzformer/."""
    return [
        (path.relative_to(SRC).as_posix(), function)
        for path in sorted(SRC.rglob("*.py"))
        for _, function in callers(path.read_text(encoding="utf-8"), callee)
    ]


def test_one_function_builds_every_thread_pool():
    for callee in ("ThreadPoolExecutor", "copy_context"):  # the context copy stays with the pool
        assert src_callers(callee) == [("training.py", "score_split")], callee


@pytest.mark.parametrize("callee", ["Adam", "train_step"])
def test_one_function_runs_every_training_loop(callee):
    assert src_callers(callee) == [("training.py", "fit")]


def test_one_module_decides_when_probes_are_off():
    assert src_callers("no_finite_probes") == [("autodiff.py", "train_step"), ("autodiff.py", "checked_forward")]


@pytest.mark.parametrize("callee,function", [("lstm_forward", "lstm_scan"), ("lstm_backward", "lstm_scan.vjp")])
def test_one_function_decides_the_lstm_caches(callee, function):
    assert src_callers(callee) == [("encoder.py", function)]


def test_the_bundle_writes_every_table_as_a_grid():
    assert set(src_callers("_write_grid")) == {("training.py", "forecast_bundle")}
    training = (SRC / "training.py").read_text(encoding="utf-8")
    own = [
        (line, callee)
        for callee in ("writer", "DictWriter", "open_output")
        for line, function in callers(training, callee)
        if function is not None and function.split(".")[0] == "forecast_bundle"
    ]
    assert own == []


@pytest.mark.parametrize("callee", ["svd", "qr"])
def test_one_function_takes_every_rank_decision(callee):
    assert src_callers(callee) == [("kernels/arima.py", "_lstsq")]


@pytest.mark.parametrize("callee", ["eigvals", "eig"])
def test_no_function_calls_an_eigenvalue_solver(callee):
    assert src_callers(callee) == []


def test_the_arima_baseline_runs_one_pass_per_cli_run():
    assert src_callers("evaluate_arima_windows") == [("cli.py", "_baseline_forecaster")]


def test_checker_finds_thread_pool_builders():
    source = (
        "import concurrent.futures as cf\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "POOL = cf.ThreadPoolExecutor(2)\n"
        "def run(n):\n    with ThreadPoolExecutor(max_workers=n) as pool:\n        pool.submit(f)\n"
        "    def inner():\n        return cf.ThreadPoolExecutor()\n"
        "class A:\n    def go(self):\n        return self.pool.submit(ThreadPoolExecutor)\n"
    )
    assert callers(source, "ThreadPoolExecutor") == [(3, None), (5, "run"), (8, "run.inner")]
    source = (
        "from fuzzformer import autodiff as ad\nfrom fuzzformer.autodiff import Adam, train_step\n"
        "def fit(params, step):\n    opt = Adam(params)\n    return ad.train_step(opt, step, None, '')\n"
        "def train(model):\n    opt = ad.Adam(model.params, learning_rate=1e-3)\n"
        "    def epoch():\n        train_step(opt, f, rng, 'epoch 1')\n"
        "class Adamish:\n    def train_step(self):\n        return Adam\n"
    )
    assert callers(source, "Adam") == [(4, "fit"), (7, "train")]
    assert callers(source, "train_step") == [(5, "fit"), (9, "train.epoch")]


def test_every_config_field_is_read():
    sources = [p.read_text(encoding="utf-8") for p in SRC.rglob("*.py") if p.name != "config.py"]
    assert unread_fields([f.name for f in fields(RunConfig)], sources) == []


def test_every_dataclass_field_is_read():
    sources = {path: path.read_text(encoding="utf-8") for path in MODULES}
    readers = [text for p, text in sources.items() if SRC in p.parents or ROOT / "perfbench" in p.parents]
    declared = [
        (p.relative_to(SRC).as_posix(), name)
        for p, text in sources.items()
        if SRC in p.parents
        for name in dataclass_fields(text)
    ]
    unread = set(unread_fields([name for _, name in declared], readers))
    # equal, not a subset: an entry whose field is now read is stale
    assert {entry for entry in declared if entry[1] in unread} == set(UNREAD_FIELD_OK)


def test_checker_flags_an_unread_field():
    source = (
        "def run(cfg, out):\n"
        "    out.seed = 1\n"  # a store is not a read
        "    rate = getattr(cfg, 'rate')\n"  # nor a string
        "    return cfg.width * rate\n"
    )
    assert unread_fields(["width", "seed", "rate"], [source]) == ["seed", "rate"]
    assert unread_fields(["Config.width", "Output.seed"], [source]) == ["Output.seed"]


def test_checker_lists_dataclass_fields():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x: int\n    y: list = field(default_factory=list)\n"
        "    z = 1\n    def f(self) -> int:\n        return self.x\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    w: int\n"
        "class C:\n    v: int\n"
        "@dataclass\ndef g():\n    pass\n"
    )
    assert dataclass_fields(source) == ["A.x", "A.y", "B.w"]

"""The digest tools that bit-for-bit claims rest on: each gives the same
digest twice, and ``tools/train_digest.py`` computes what the benchmark's
``train`` workload runs, so a change to the benchmark cannot leave the tool
behind.  And scans of the package's source: one reader and one writer of
files, one place that writes a refusal's file name, and nothing public
that only tests use."""

import ast
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "frameparse"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tools():
    """The two tools, loaded by path, and the benchmark's workloads.  A tool
    puts the repository on ``sys.path`` and pins the BLAS thread count in the
    environment when loaded; both are undone after this module's tests."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            patch.setenv(var, "1")
        loaded = {name: _load(name) for name in ("decode_digest", "train_digest")}
        loaded["workloads"] = importlib.import_module("perfbench.workloads")
        loaded["calibration"] = importlib.import_module("perfbench.calibration")
        yield loaded


def test_digests_are_deterministic(tools):
    decode = tools["decode_digest"].digests(9601, 10)
    assert set(decode) == {"greedy", "beam5"}
    assert tools["decode_digest"].digests(9601, 10) == decode
    train = tools["train_digest"].digests(2301, 3)
    assert set(train) == {"loss_sum", "params", "next_draw"}
    assert tools["train_digest"].digests(2301, 3) == train


def test_train_digest_matches_the_train_workload(tools, tmp_path):
    no_calibration = tools["calibration"].NoCalibration()
    work = tools["workloads"].Train(no_calibration)
    work.setup(2301, tmp_path, tools["calibration"].LapTimer(no_calibration))
    total = 0.0
    for k in range(3):
        total += work.run_unit(k).output
    params = hashlib.sha256()
    for name, value in work.model.store.value_arrays().items():
        params.update(name.encode())
        params.update(value.tobytes())
    assert tools["train_digest"].digests(2301, 3) == {
        "loss_sum": repr(total),
        "params": params.hexdigest(),
        "next_draw": repr(work.rng.random()),
    }


# The functions that may open a file: the readers, which only read, and the
# writer, which alone creates, writes, renames or removes one.
READERS = {"dataset.read_lines", "neural.params.load_checkpoint"}
WRITER = {"dataset.write_file", "dataset.check_writable", "dataset._temporary"}


def _file_access(call: ast.Call):
    """"read", "write" or None for a call.  The builtin ``open`` reads with
    no mode or a mode without w, a, x or +; any other ``open`` (``os.open``,
    ``Path.open``), ``write_text``, ``write_bytes`` and the ``os`` calls that
    create, rename or remove a file write.  Opening ``os.devnull`` touches no
    file."""
    func = call.func
    if call.args and ast.unparse(call.args[0]) == "os.devnull":
        return None
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), None)
        reads = mode is None or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                                 and not set(mode.value) & set("wax+"))
        return "read" if reads else "write"
    if not isinstance(func, ast.Attribute):
        return None
    on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
    if func.attr in ("open", "write_text", "write_bytes") or (
            on_os and func.attr in ("fdopen", "replace", "rename", "remove", "unlink")):
        return "write"
    return None


class _FileAccess(ast.NodeVisitor):
    """Each function of a module that opens, writes or removes a file, by
    dotted name (``module.function``, with enclosing classes and functions),
    with the kinds of access it makes."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = {}

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        access = _file_access(node)
        if access:
            self.found.setdefault(".".join(self.scope), set()).add(access)
        self.generic_visit(node)


def test_one_reader_and_one_writer_touch_files():
    """Outside the writer nothing opens a file for writing; outside the
    readers and the writer nothing opens a file at all."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        scan = _FileAccess(".".join(path.relative_to(PACKAGE).with_suffix("").parts))
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(scan.found)
    assert found == {**{name: {"read"} for name in READERS},
                     **{name: {"write"} for name in WRITER}}


# Where each refusal's constructor takes its message and its path: the
# positional index, and the keyword.
REFUSALS = {"IngestError": ((1, "message"), (3, "path")),
            "CheckpointError": ((0, "message"), (1, "path"))}


def _argument(call: ast.Call, index: int, keyword: str):
    if len(call.args) > index:
        return call.args[index]
    return next((kw.value for kw in call.keywords if kw.arg == keyword), None)


def test_no_refusal_message_starts_with_its_path():
    """``IngestError`` alone writes the ``<path>: `` before a refusal's
    message, so no ``IngestError`` or ``CheckpointError`` message in the
    package starts with a formatted ``path``, or with the path it passes."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in REFUSALS:
                continue
            message, named = (_argument(node, *where) for where in REFUSALS[name])
            paths = {"path"} | ({ast.unparse(named)} if named is not None else set())
            if (isinstance(message, ast.JoinedStr) and message.values
                    and isinstance(message.values[0], ast.FormattedValue)
                    and ast.unparse(message.values[0].value) in paths):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def _referenced_names(node: ast.AST) -> set:
    """Every name used below ``node``: names, attribute names, imported
    names and identifier strings (the benchmark's tracer names what it
    patches in strings)."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name.rpartition(".")[2])
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            names.add(child.value)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_nothing_public_is_only_for_tests():
    """Every public module-level function and class of the package is used
    by the package, outside its own definition and the ``__init__``
    re-exports, or by the benchmark or the tools.  Names are matched
    without their module, so a definition passes if anything else of the
    same name is used."""
    used = set()
    for directory in (ROOT / "perfbench", ROOT / "tools"):
        for path in directory.rglob("*.py"):
            if "tests" not in path.relative_to(directory).parts:
                used |= _referenced_names(_parse(path))
    # Per top-level statement of each module, the names it uses; a
    # definition's own statement does not count for it.
    statements = [(node, _referenced_names(node)) for path in sorted(PACKAGE.rglob("*.py"))
                  if path.name != "__init__.py" for node in _parse(path).body]
    public = [node for node, _ in statements if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name[0] != "_"]
    unused = [node.name for node in public if node.name not in used and not any(
        node.name in names for other, names in statements if other is not node)]
    assert unused == []

"""Repository checks: the benchmark's traced run finds every library
function it wraps, every exported name exists, neither importing the
package nor running any subcommand loads scipy, no subcommand loads
dataclasses, and none writing JSON loads csv, importing the package
loads only its exceptions, neither the exact subcommands nor the float
ones on atomic or grid measures load numpy or inspect, characterize and
the convolution subcommands other than the boxtimes word oracle never load
the word engine, the convolution subcommands without the word oracle and
the moment and cumulant subcommands never load the non-crossing kernel,
the exact series kernels see only Python ints, every
exported name is reachable from the CLI's source or kept for a stated
reason, every reference engine in the oracles is reachable from some
test, neither the package source nor the tests import anything
they do not use, the command's script and ``python -m freeconv.cli``
call the same function, and no subcommand leaves a thread running."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_JOB = ROOT / "bench" / "traced_job.py"
PACKAGE = ROOT / "src" / "freeconv"


def test_trace_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("traced_job", TRACED_JOB)
    traced_job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_job)
    missing = [
        f"freeconv.{module}.{attr}"
        for module, attr, _ in traced_job.BOUNDARIES
        if not callable(getattr(importlib.import_module(f"freeconv.{module}"), attr, None))
    ]
    assert traced_job.BOUNDARIES and not missing


def test_exported_names_resolve():
    modules = ["freeconv"] + [
        f"freeconv.{path.stem}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    ]
    missing = [
        f"{name}.{attr}"
        for name in modules
        for attr in getattr(importlib.import_module(name), "__all__", ())
        if not hasattr(importlib.import_module(name), attr)
    ]
    assert not missing


# Exported names that the CLI cannot reach, each kept on purpose.
KEEP = {
    "hankel_psd": "the benchmark's traced run wraps it by name",
    "form_moments": "the benchmark's traced run wraps it by name",
    "joint_moment": "the benchmark's traced run wraps it by name",
    "centered_product_moment": "the benchmark's traced run wraps it by name",
    "singular_values": "the benchmark's traced run wraps it by name",
    "sample_family": "the benchmark's library job calls it; the CLI draws through the same _sample_one",
    "verify_inequalities": "the benchmark's library job calls it",
    "InequalityReport": "what verify_inequalities returns to the benchmark's library job",
    "ncLp_norm": "the benchmark's library job calls it",
    "measure_to_json": "the inverse of measure_from_json, for the serialization round-trip",
}


def reads(node: ast.AST) -> set[str]:
    """Names a node reads: loaded names, attributes and imported names."""
    read: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            read.add(child.id)
        elif isinstance(child, ast.Attribute):
            read.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            read.update(a.name for a in child.names)
    return read


def reachable(sources: dict[str, str], root: str) -> set[str]:
    """Names reachable from the module ``root`` of ``sources`` (name to text).

    Every name the root module reads is reachable, and so is every name
    read by a reachable top-level function, class or assignment of another
    module.  Definitions are matched by name across modules, which can
    only over-count; a definition read only by its own body stays unreached.
    """
    found: set[str] = set()
    defined: dict[str, set[str]] = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        if module == root:
            found |= reads(tree)
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, set()).update(reads(stmt))
    pending = list(found)
    while pending:
        for name in defined.get(pending.pop(), set()) - found:
            found.add(name)
            pending.append(name)
    return found


def test_reachability_follows_reads_from_the_root():
    sources = {
        "cli": "from .lib import run\nrun()\n",
        "lib": (
            "LIMIT = helper_limit()\n"
            "def run():\n    return Report(LIMIT)\n"
            "class Report:\n    def total(self):\n        return self.part()\n"
            "def helper_limit():\n    return 3\n"
            "def unused():\n    return unused() + other()\n"
            "def other():\n    return 1\n"
        ),
    }
    found = reachable(sources, "cli")
    assert {"run", "Report", "LIMIT", "helper_limit", "part"} <= found
    assert not {"unused", "other", "total"} & found


def test_every_export_is_read_or_kept():
    # read by the CLI or by a function the CLI reaches
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    exported = set()
    for stem in sources:
        module = "freeconv" if stem == "__init__" else f"freeconv.{stem}"
        exported.update(getattr(importlib.import_module(module), "__all__", ()))
    assert sorted(exported - reachable(sources, "cli")) == sorted(KEEP)


def test_every_oracle_is_reachable_from_a_test():
    # a reference engine no test reaches checks nothing
    tests = ROOT / "tests"
    oracles = (tests / "oracles.py").read_text()
    defined = set()
    for stmt in ast.parse(oracles).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    used: set[str] = set()
    for path in sorted(tests.glob("test_*.py")):
        used |= reachable({"oracles": oracles, path.stem: path.read_text()}, path.stem)
    assert sorted(defined - used) == []


def run_probe(probe: str, *args: str) -> str:
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return result.stdout


def run_in_one_process(
    runs: list[list[str]], *packages: str
) -> tuple[list[int], dict[str, list[str]]]:
    """Exit codes of the CLI runs, made one after another in one fresh
    process, and for each of ``packages`` its modules loaded at the end.

    No run may leave a thread other than the main thread alive: ``cli.run``
    ends the process with ``os._exit``, which would cut such a thread off.
    """
    probe = (
        "import json, os, sys, threading\n"
        "from freeconv.cli import main\n"
        "codes = [main(argv + ['--output', os.devnull]) for argv in json.loads(sys.argv[1])]\n"
        "loaded = {p: sorted(m for m in sys.modules if m.split('.')[0] == p) for p in sys.argv[2:]}\n"
        "threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]\n"
        "print(json.dumps([codes, loaded, threads]))"
    )
    codes, loaded, threads = json.loads(run_probe(probe, json.dumps(runs), *packages))
    assert threads == []
    return codes, loaded


def test_import_leaves_scipy_unloaded():
    probe = "import sys, freeconv; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_probe(probe).strip() == "[]"


def every_subcommand() -> list[list[str]]:
    demo = {name: str(ROOT / "demos" / "data" / f"{name}.json")
            for name in ("bernoulli", "two_point", "rademacher")}
    return [
        ["moments", demo["two_point"], "--order", "4"],
        ["cumulants", demo["two_point"], "--order", "4", "--kind", "free"],
        ["boxplus", demo["bernoulli"], demo["two_point"], "--order", "4"],
        ["boxtimes", demo["bernoulli"], demo["two_point"], "--order", "4", "--method", "all"],
        ["subordinate", demo["bernoulli"], demo["two_point"], "--grid", "3"],
        ["diagnose", demo["two_point"], "--alpha", "0.5"],
        ["characterize", "--preset", "mean-variance", demo["rademacher"], "--max-len", "4"],
        ["matrixlab", "--word", "T1 T2", "--N", "16", "--trials", "4",
         "--ensemble", "diagonal", "--measure", demo["bernoulli"]],
        ["matrixlab", "--word", "T1^2", "--N", "16", "--trials", "4"],
    ]


def test_subcommands_leave_scipy_unloaded():
    runs = every_subcommand()
    # every run writes JSON, so csv is never needed
    codes, loaded = run_in_one_process(runs, "scipy", "dataclasses", "csv")
    assert codes == [0] * len(runs)
    assert loaded == {"scipy": [], "dataclasses": [], "csv": []}


def test_no_subcommand_leaves_a_thread_running():
    # run_in_one_process fails on a live thread; with two threads matrixlab
    # runs its trials in a pool, which it must join before returning
    runs = [["--threads", "2", *argv] for argv in every_subcommand()]
    assert run_in_one_process(runs)[0] == [0] * len(runs)


def test_entry_points_name_the_same_function():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        script = tomllib.load(handle)["project"]["scripts"]["freeconv"]
    module, function = script.split(":")
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main_block = [
        stmt for stmt in tree.body
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'"
    ]
    called = [
        node.func.id
        for stmt in main_block
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert module == "freeconv.cli"
    assert called == [function] == ["run"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def test_import_loads_only_the_exceptions():
    probe = "import sys, freeconv; print(sorted(m for m in sys.modules if m.startswith('freeconv')))"
    assert run_probe(probe).strip() == "['freeconv', 'freeconv.errors']"


def test_exact_subcommands_leave_numpy_unloaded():
    demo = {name: str(ROOT / "demos" / "data" / f"{name}.json")
            for name in ("bernoulli", "two_point", "rademacher", "semicircle")}
    runs = [
        ["moments", demo["two_point"], "--order", "4"],
        ["cumulants", demo["two_point"], "--order", "4", "--kind", "free"],
        ["cumulants", demo["two_point"], "--order", "4", "--kind", "boolean"],
        ["boxplus", demo["semicircle"], demo["rademacher"], "--order", "4"],
        ["boxtimes", demo["bernoulli"], demo["two_point"], "--order", "4", "--method", "taylor"],
        ["boxtimes", demo["bernoulli"], demo["two_point"], "--order", "4", "--method", "oracle"],
        ["characterize", "--preset", "mean-variance", demo["rademacher"], "--max-len", "6"],
        ["characterize", "--preset", "mean-variance", demo["semicircle"], "--max-len", "6"],
    ]
    codes, loaded = run_in_one_process(runs, "numpy", "inspect")
    assert codes == [0] * len(runs)
    assert loaded == {"numpy": [], "inspect": []}
    # the moment and cumulant conversions need no non-crossing kernel
    codes, loaded = run_in_one_process(runs[:3], "freeconv")
    assert codes == [0] * 3
    assert "freeconv.transforms" in loaded["freeconv"]
    assert "freeconv.noncrossing" not in loaded["freeconv"]


def test_atomic_float_subcommands_leave_numpy_unloaded():
    demo = {name: str(ROOT / "demos" / "data" / f"{name}.json") for name in ("bernoulli", "two_point")}
    runs = [
        ["diagnose", demo["bernoulli"], "--alpha", "0.5"],
        ["subordinate", demo["bernoulli"], demo["two_point"], "--z", "-0.5"],
        ["subordinate", demo["bernoulli"], demo["two_point"], "--grid", "3"],
        ["boxtimes", demo["bernoulli"], demo["two_point"], "--order", "4", "--method", "subordination"],
        ["boxtimes", demo["bernoulli"], demo["two_point"], "--order", "4", "--method", "all"],
    ]
    codes, loaded = run_in_one_process(runs, "numpy", "inspect")
    assert codes == [0] * len(runs)
    assert loaded == {"numpy": [], "inspect": []}


def test_grid_subcommands_leave_numpy_unloaded(tmp_path):
    # a grid is read as its nodal measure, in plain Python
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "grid", "x": [0.5, 1, 1.5, 2, 2.5], "f": [0, 0.5, 1, 0.5, 0]}))
    bernoulli = str(ROOT / "demos" / "data" / "bernoulli.json")
    runs = [
        ["moments", str(grid), "--order", "4"],
        ["subordinate", str(grid), bernoulli, "--grid", "3"],
        ["diagnose", str(grid), "--alpha", "0.5"],
        ["boxtimes", str(grid), str(grid), "--order", "4", "--method", "all"],
    ]
    codes, loaded = run_in_one_process(runs, "numpy", "inspect")
    assert codes == [0] * len(runs)
    assert loaded == {"numpy": [], "inspect": []}


def test_characterize_leaves_word_engine_unloaded():
    probe = (
        "import os, sys\n"
        "from freeconv.cli import main\n"
        "argv = ['characterize', '--preset', 'mean-variance', sys.argv[1], '--max-len', '6']\n"
        "print(main(argv + ['--output', os.devnull]), 'freeconv.word_engine' in sys.modules)"
    )
    rademacher = str(ROOT / "demos" / "data" / "rademacher.json")
    assert run_probe(probe, rademacher).split() == ["0", "False"]


def test_convolution_jobs_leave_word_engine_unloaded():
    # only the word oracle of boxtimes needs the word engine
    demo = {name: str(ROOT / "demos" / "data" / f"{name}.json") for name in ("bernoulli", "two_point")}
    runs = [
        ["boxplus", demo["bernoulli"], demo["two_point"], "--order", "4"],
        ["boxtimes", demo["bernoulli"], demo["two_point"], "--order", "4", "--method", "taylor"],
        ["boxtimes", demo["bernoulli"], demo["two_point"], "--order", "4", "--method", "subordination"],
        ["subordinate", demo["bernoulli"], demo["two_point"], "--grid", "3"],
        ["diagnose", demo["two_point"], "--alpha", "0.5"],
    ]
    codes, loaded = run_in_one_process(runs, "freeconv")
    assert codes == [0] * len(runs)
    assert "freeconv.convolution" in loaded["freeconv"]
    assert "freeconv.word_engine" not in loaded["freeconv"]
    assert "freeconv.noncrossing" not in loaded["freeconv"]


def test_series_kernels_see_only_ints(monkeypatch):
    # Fractions back in the power table or the series division would still
    # give exact results, only many times slower; this counts entries, not time
    from fractions import Fraction

    from freeconv import convolution, transforms
    from freeconv.measures import Atomic, moments

    seen = {"fill_power_degree": 0, "_divide_by_one_plus": 0}
    not_int = []

    def check(name, values):
        seen[name] += len(values)
        not_int.extend(type(v).__name__ for v in values if type(v) is not int)

    fill, divide = transforms.fill_power_degree, transforms._divide_by_one_plus

    def fill_checked(pw, d):
        fill(pw, d)
        check("fill_power_degree", [v for row in pw for v in row])

    def divide_checked(num, den):
        out = divide(num, den)
        check("_divide_by_one_plus", [*num, *den, *out])
        return out

    for module in (transforms, convolution):
        monkeypatch.setattr(module, "fill_power_degree", fill_checked)
        monkeypatch.setattr(module, "_divide_by_one_plus", divide_checked)

    mu1 = Atomic([(Fraction(1, 2), Fraction(1, 3)), (Fraction(5, 2), Fraction(2, 3))])
    mu2 = Atomic([(1, Fraction(1, 2)), (2, Fraction(1, 2))])
    m1, m2 = moments(mu1, 24), moments(mu2, 24)
    convolution.boxtimes_moments(m1, m2, 24)
    transforms.moments_from_free(transforms.free_from_moments(m1))
    transforms.moments_from_boolean(transforms.boolean_from_moments(m2))
    assert all(seen.values()) and not_int == []


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that their own scope never reads.

    The scope of an import is the module, or the function that holds it,
    nested functions included: a function-local import counts as used
    only when that function reads it, whatever other functions read.
    """
    unused: list[str] = []

    def own_nodes(scope: ast.AST):
        for child in ast.iter_child_nodes(scope):
            yield child
            if not isinstance(child, FUNCTIONS):
                yield from own_nodes(child)

    def check(scope: ast.AST) -> None:
        read = {
            n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in own_nodes(scope):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                if isinstance(node, FUNCTIONS):
                    check(node)
                continue
            unused.extend(name for name in bound if name not in read)

    check(ast.parse(source))
    return unused


def test_unused_import_scan_flags_only_unread_names():
    source = "import math\nimport numpy as np\nfrom typing import Iterable, Sequence\nx: Sequence = np.ones(1)\n"
    assert unused_imports(source) == ["math", "Iterable"]
    # a function-local import is checked against its own function's reads
    scoped = (
        "import math\n"
        "def f():\n    import numpy as np\n    return math.pi\n"
        "def g():\n    import numpy as np\n    return np.ones(1)\n"
    )
    assert unused_imports(scoped) == ["np"]


def test_package_has_no_unused_imports():
    # the package's __init__.py imports in order to re-export, so it is exempt
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    found = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if (names := unused_imports(path.read_text()))
    }
    assert not found

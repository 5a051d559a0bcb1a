"""Fresh-interpreter tests: what importing bscount loads, and first imports
made inside the worker pool; and the package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# runs `bscount <argv>` and prints whether scipy was first imported on the
# main thread (None when it was never imported)
RUN_CLI = """
import sys, threading
first = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" and not first:
            first.append(threading.current_thread() is threading.main_thread())

sys.meta_path.insert(0, Spy())
from bscount.cli import main
status = main(sys.argv[1:])
print(first[0] if first else None)
sys.exit(status)
"""


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["bscount", "bscount.cli"])
def test_import_loads_no_scipy(module):
    out = python("-c", f"import sys, {module}\n"
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert out.strip() == "[]"


@pytest.mark.parametrize("module", ["bscount", "bscount.cli"])
def test_import_loads_no_tomllib(module):
    # the config reader imports tomllib on the first config it reads
    out = python("-c", f"import sys, {module}\nprint('tomllib' in sys.modules)")
    assert out.strip() == "False"


def test_range_checks_of_a_config_load_no_scipy():
    # validate_config builds the grid, potential and model of a config, and
    # checks its shifts and kernel points, to check its ranges; none of them
    # loads scipy, so setup stays light
    script = ("import sys\nfrom bscount.cli import parse_config_text, validate_config\n"
              "for text in ('command = \"twobody\"\\ngrid.n = 600\\ngrid.ell = 1\\n"
              "potential.range = 2.0\\n', 'command = \"efimov\"\\nmodel.n_p = 128\\n"
              "efimov.e_floor = -2.0\\n', 'command = \"twobody\"\\nscan.epsilons = [0.1]\\n', "
              "'command = \"kernelcheck\"\\nkernel.gammas = [0.1]\\n'):\n"
              "    validate_config(*parse_config_text(text), None)\n"
              "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert python("-c", script).strip() == "[]"


def test_kernelcheck_loads_no_scipy_integrate(tmp_path):
    # the resolvent-power kernel is a closed form in scipy.special
    out = python("-c", "import sys\nfrom bscount.cli import main\n"
                 f"assert main(['kernelcheck', '--out', {str(tmp_path)!r}]) == 0\n"
                 "print([m for m in sys.modules if m.startswith('scipy.integrate')])")
    assert out.strip().splitlines()[-1] == "[]"


def efimov_loads(tmp_path, prefix):
    """The modules starting with ``prefix`` that ``bscount efimov`` at
    ``model.n_p = 128`` loads in a fresh interpreter."""
    cfg = tmp_path / "efimov.toml"
    cfg.write_text('command = "efimov"\nmodel.n_p = 128\n')
    out = python("-c", "import sys\nfrom bscount.cli import main\n"
                 f"assert main(['efimov', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
                 f"print([m for m in sys.modules if m.startswith({prefix!r})])")
    assert (tmp_path / "efimov.csv").read_text().count("\n") >= 5  # three levels or more
    return out.strip().splitlines()[-1]


def test_efimov_loads_no_scipy_optimize(tmp_path):
    # the trimer levels are found by efimov._brentq, a port of scipy's brentq
    assert efimov_loads(tmp_path, "scipy.optimize") == "[]"


def test_efimov_loads_no_scipy_special(tmp_path):
    # the momentum grid is linop._legendre_rule, a port of scipy's
    # roots_legendre at even orders, which n_p is; only an odd order calls
    # scipy.special's own
    assert efimov_loads(tmp_path, "scipy.special") == "[]"


def test_no_library_module_imports_scipy_optimize():
    imported = set()
    for path in (ROOT / "src" / "bscount").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert [name for name in imported if name.startswith("scipy.optimize")] == []


def test_twobody_csv_bytes_do_not_depend_on_jobs_in_fresh_interpreters(tmp_path):
    csv = []
    for jobs in ("1", "4"):
        out = tmp_path / jobs
        first_on_main = python("-c", RUN_CLI, "twobody", "--out", str(out), "--jobs", jobs)
        # scipy's first import happens inside the pool's worker threads
        assert first_on_main.strip() == "False"
        csv.append((out / "twobody.csv").read_bytes())
    assert csv[0] == csv[1]


def referenced_names(path):
    """Every name a ``Name`` or ``Attribute`` node of the file reads, leaving
    out a module-level function or class's references to its own name."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                names.add(name)
    return names


def public_definitions(path):
    """``(qualified name, name)`` of each public module-level function and
    class of the file, and of each public method or property of its public
    classes."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield f"{path.stem}.{stmt.name}", stmt.name
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{stmt.name}.{item.name}", item.name


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # a public name that only tests call is surface kept for the tests alone
    library = sorted((ROOT / "src" / "bscount").glob("*.py"))
    callers = [*library, *sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(referenced_names, callers))
    unused = [qualified for path in library for qualified, name in public_definitions(path)
              if name not in used]
    assert unused == []

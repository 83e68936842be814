"""``stefan.kernel``, ``stefan.energy``, ``stefan.optimize`` and
``stefan.solution`` load on first use.

Each sits in ``sys.modules`` from ``import stefan`` on, and its body
runs at the first attribute read, so a CLI process that never reaches a
layer never runs it: ``check``, ``dump`` and every subcommand on a bad
config run none of the four, and a Diverged solve never runs
``solution``.  The first read of a package name not yet bound binds
every name of the energy, the optimizer and the solution in the
package, through ``__getattr__``, which then drops itself; a submodule
is not such a name.  Each script runs in a fresh interpreter, since this
test process has loaded every layer.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stefan

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# type() reads no attribute of the module, so it does not trigger the load
LOADED = """
import sys, types

def loaded():
    return [type(sys.modules[f"stefan.{m}"]) is types.ModuleType
            for m in ("kernel", "energy", "optimize", "solution")]
"""

CLI_LOADS = LOADED + """
import contextlib, io
import stefan.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return stefan.cli.main(list(argv))

good, diverging, bad, out = sys.argv[1:]
grid = ["--t", "1", "--x-min", "-1", "--x-max", "1", "--samples", "3", "--out", out]
assert loaded() == [False] * 4, loaded()
codes = [run("check", good), run("dump", good), run("check", diverging),
         run("check", bad), run("solve", bad), run("profile", bad, *grid), run("dump", bad)]
assert codes == [0, 0, 2, 1, 1, 1, 1], codes
assert loaded() == [False] * 4, loaded()
assert [run("solve", diverging), run("profile", diverging, *grid)] == [3, 3]
assert loaded() == [True, True, True, False], loaded()
assert run("solve", good) == 0
assert loaded() == [True] * 4, loaded()
"""

# the problem and options types, their pickles and the package's own names
# need none of the lazy layers
SURFACE = LOADED + """
import pickle
import stefan
from stefan import ProblemSpec, SolveOptions, SolveStatus, check_wellposedness

opts = SolveOptions(grad_tol=1e-9, max_iter=7)
assert pickle.loads(pickle.dumps(opts)) == opts
for status in SolveStatus:
    assert pickle.loads(pickle.dumps(status)) is status
spec = ProblemSpec(u=(-1.0, 0.0, 2.0), a=(1.0, 1.5), k=(1.0, 0.5), d=(-0.2,))
report = check_wellposedness(spec)
assert pickle.loads(pickle.dumps(report)) == report
copy = pickle.loads(pickle.dumps(spec))
assert copy == spec and check_wellposedness(copy) == report
assert stefan.InvalidProblem and stefan.EnergyOverflow and stefan.NewtonBreakdown
assert loaded() == [False] * 4, loaded()

# a pickle that names stefan.energy, as the classes' pickles did before
# they moved to stefan.problem, loads the energy and gives the same class
old = pickle.dumps(ProblemSpec(u=spec.u, a=spec.a, k=spec.k, d=spec.d), protocol=2)
assert old.count(b"cstefan.problem\\nProblemSpec\\n") == 1, old
old = old.replace(b"cstefan.problem\\n", b"cstefan.energy\\n")
assert pickle.loads(old) == spec and type(pickle.loads(old)) is ProblemSpec
assert loaded() == [False, True, False, False], loaded()

# the first read of a layer's name binds every name of the three layers,
# and drops the hook, so that later reads are plain module attribute reads
assert "minimize" not in vars(stefan) and "__getattr__" in vars(stefan)
minimize = stefan.minimize
assert loaded() == [False, True, True, True], loaded()
assert vars(stefan)["minimize"] is minimize is sys.modules["stefan.optimize"].minimize
assert all(name in vars(stefan) for name in stefan.__all__)
assert "__getattr__" not in vars(stefan) and "__dir__" not in vars(stefan)
"""

# the import system probes `stefan.cli` as an attribute before importing the
# submodule; that probe loads no layer, and the names still bind afterwards
FROM_IMPORT = LOADED + """
from stefan import cli
assert cli is sys.modules["stefan.cli"] and callable(cli.main)
assert loaded() == [False] * 4, loaded()
from stefan import minimize
assert minimize is sys.modules["stefan.optimize"].minimize
from stefan import energy
assert callable(energy) and energy is sys.modules["stefan.energy"].energy
"""

# a star import or dir() as the first read binds every name too
FIRST_READ = """
import sys
import stefan
if sys.argv[1] == "star":
    names = {}
    exec("from stefan import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(stefan.__all__)
    assert all(value is getattr(stefan, name) for name, value in names.items())
listed = dir(stefan)
assert set(stefan.__all__) <= set(listed) and "__getattr__" not in listed, listed
"""


def _run(script, *args):
    env = dict(os.environ)
    src = str(Path(stefan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_only_the_layers_it_reaches(tmp_path):
    _run(CLI_LOADS, str(CONFIGS / "two_phase_symmetric.json"),
         str(CONFIGS / "supercooled_noncoercive.json"),
         str(CONFIGS / "invalid_missing_key.json"), str(tmp_path / "p.csv"))


def test_package_surface_loads_layers_on_first_use():
    _run(SURFACE)


def test_importing_a_submodule_from_the_package_loads_no_layer():
    _run(FROM_IMPORT)


@pytest.mark.parametrize("first", ["star", "dir"])
def test_star_import_and_dir_cover_all(first):
    _run(FIRST_READ, first)

"""numpy stays out of ``import stefan`` and the CLI; the five public
functions that return arrays load it on first call and keep their
types, shapes and values.  The first point with ``energy._VECTOR_N``
fronts or more loads it too, for its array passes."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import stefan
from stefan import (
    FreeBoundaries,
    GridSearchResult,
    ProblemSpec,
    gradient,
    grid_search,
    hessian,
    newton_step,
    stefan_residuals,
)

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "two_phase_symmetric.json"

THREE = ProblemSpec(
    u=(-2.0, -0.5, 0.7, 1.1, 2.4),
    a=(1.2, 0.8, 1.5, 0.9),
    k=(0.7, 1.9, 1.1, 0.6),
    d=(0.3, -0.2, 0.5),
)
XI3 = (-0.4, 0.1, 0.9)

# run in a fresh interpreter: this test process already holds numpy
CLI_WITHOUT_NUMPY = """
import sys
import stefan, stefan.cli
config, out = sys.argv[1], sys.argv[2]
codes = [
    stefan.cli.main(["check", config]),
    stefan.cli.main(["solve", config]),
    stefan.cli.main(["profile", config, "--t", "1.0", "--x-min", "-5",
                     "--x-max", "5", "--samples", "11", "--out", out]),
    stefan.cli.main(["dump", config]),
]
assert codes == [0, 0, 0, 0], codes
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if "numpy" in m)
"""


def test_import_and_cli_leave_numpy_unloaded(tmp_path):
    env = dict(os.environ)
    src = str(Path(stefan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_WITHOUT_NUMPY, str(CONFIG), str(tmp_path / "p.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "p.csv").exists()


def _is_float_array(value, shape):
    return isinstance(value, np.ndarray) and value.dtype == np.float64 and value.shape == shape


def test_array_returning_functions_keep_their_types():
    assert _is_float_array(gradient(THREE, XI3), (3,))
    assert _is_float_array(hessian(THREE, XI3), (3, 3))
    assert _is_float_array(newton_step(THREE, XI3)[0], (3,))
    assert _is_float_array(stefan_residuals(THREE, XI3), (3,))


def test_grid_search_result_unchanged():
    spec = ProblemSpec(u=(-1.0, 0.0, 1.0, 2.0), a=(1, 1, 1), k=(1, 1, 1), d=(0.0, 0.0))
    res = grid_search(spec, [(-3.0, 3.0), (-3.0, 3.0)], 301)
    assert res == GridSearchResult(
        xi=FreeBoundaries((-0.6200000000000001, 0.6000000000000001)),
        energy=3.295897677041433,
        on_boundary=False,
    )
    assert type(res.xi.xi[0]) is float


# run in a fresh interpreter: a point just under the threshold leaves
# numpy unloaded, and the first one at it loads it
VECTOR_POINT_LOADS_NUMPY = """
import sys
import stefan
from stefan.energy import _VECTOR_N, _Point
for n, loaded in ((_VECTOR_N - 1, False), (_VECTOR_N, True)):
    spec = stefan.ProblemSpec(u=range(n + 2), a=[1.0] * (n + 1), k=[1.0] * (n + 1),
                              d=[0.0] * n)
    _Point(spec, [0.1 * i for i in range(n)]).gradient()
    assert ("numpy" in sys.modules) is loaded, n
"""


def test_the_first_vector_point_loads_numpy():
    env = dict(os.environ)
    src = str(Path(stefan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", VECTOR_POINT_LOADS_NUMPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""perfbench's traced CLI process runs on the lazily loaded layers.

``perfbench/traced_cli.py`` wraps every layer function it traces by
looking its module up in ``sys.modules``, so ``stefan.kernel``,
``stefan.energy``, ``stefan.optimize`` and ``stefan.solution`` must be
there from ``import stefan`` on, before any of their bodies has run.  A check, a coercive solve and a Diverged solve
must exit with their codes and record the layer spans they reach.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, sub, config):
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans), sub,
         str(ROOT / "configs" / config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    data = json.loads(spans.read_text())
    return proc, {data["names"][i] for i in data["name"]}


@pytest.mark.parametrize(
    "sub, config, code, reached, unreached",
    [
        ("check", "two_phase_symmetric.json", 0, {"energy.check_wellposedness"},
         {"kernel.log_gap", "optimize.minimize", "solution.assemble"}),
        ("solve", "two_phase_symmetric.json", 0,
         {"kernel.log_gap", "optimize.minimize", "solution.assemble", "solution.validate"},
         set()),
        ("solve", "supercooled_noncoercive.json", 3, {"optimize.minimize"},
         {"solution.assemble", "solution.validate"}),
    ],
)
def test_traced_process_records_the_layers_it_reaches(
    tmp_path, sub, config, code, reached, unreached
):
    proc, names = _traced(tmp_path, sub, config)
    assert proc.returncode == code, proc.stderr
    assert reached <= names and not unreached & names, names

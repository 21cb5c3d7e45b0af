"""The simulator needs only its runtime dependencies (numpy, networkx).

scipy is not one of them.  A child interpreter with ``scipy`` blocked
must still run the default Monte-Carlo path (``repeat_broadcast``, which
runs oblivious algorithms as macro unions) for KP and BGI, and a macro
run with a fault plan and metrics.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError

from repro.baselines import BGIBroadcast
from repro.core import KnownRadiusKP
from repro.obs.metrics import MetricsRegistry
from repro.sim import FaultPlan, repeat_broadcast, run_broadcast
from repro.topology import gnp_connected

net = gnp_connected(40, 0.15, seed=2)
for algorithm in (KnownRadiusKP(net.r, net.radius), BGIBroadcast(net.r)):
    results = repeat_broadcast(net, algorithm, runs=4)
    assert len(results) == 4 and all(r.completed for r in results)
metrics = MetricsRegistry()
result = run_broadcast(
    net, KnownRadiusKP(net.r, net.radius), seed=1, engine="macro",
    faults=FaultPlan(crashes=((5, 3),), loss_probability=0.2, seed=3),
    metrics=metrics,
)
assert result.fault_counters.crashed_nodes == 1
assert metrics.to_dict()["counters"]["engine_slots"] == result.time
print("ok")
"""


def test_default_paths_run_without_scipy():
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

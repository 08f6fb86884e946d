"""The benchmark reaches each layer through a named binding; renaming one must fail here.

``bench/tracing.py`` wraps module attributes such as ``adversary._Run.seek``,
``adversary.diagonalize`` and ``synth.attempt`` for a traced pass, and lists a
binding the program no longer has as unbound instead of failing, so a rename
would silently zero that layer's counters.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# bindings the tracer still names although the program dropped them on purpose
KNOWN_UNBOUND = {"semantics.zero_pad", "synth.substitute"}


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_binds_every_layer_it_wraps():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert set(tracer.unbound) <= KNOWN_UNBOUND

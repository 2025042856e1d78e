"""Cross-process differential: one seed gives the same bytes in any process.

Runs :mod:`tests.determinism_probe` in two processes at once, one
under ``PYTHONHASHSEED=0`` and one under ``=1``, and requires every
output digest to agree.  This is the check for determinism hazards no
lint rule sees: a set of strings iterated into output through a
helper, ``id()`` reaching a sort key, a host-clock value carried out of
``ReportClock`` into a snapshot, an unpicklable value on session state.
"""

import os
import subprocess
import sys
from pathlib import Path

from tests.test_spans import GOLDEN

REPO_ROOT = Path(__file__).parent.parent

#: Fixed, so a set-order hazard fails on every run and not by chance:
#: of seeds 0-3, only 1 iterates w3's two app names {"apsi", "bt.A"} in
#: the other order.  ``id()`` values need no seed: they are addresses,
#: which differ between any two processes under address-space
#: randomisation, and a planted ``id()`` sort key changed the serve
#: digests in every pair of probes tried.
HASH_SEEDS = ("0", "1")

#: each probe takes a few seconds; this only bounds a hung one
PROBE_TIMEOUT_S = 600


def _probe_env(seed: str) -> dict:
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=os.pathsep.join(p for p in path if p),
    )


def _run_probes() -> dict:
    """``{seed: (exit code, stdout, stderr)}``, the probes run together."""
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-m", "tests.determinism_probe"],
            cwd=REPO_ROOT, env=_probe_env(seed), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for seed in HASH_SEEDS
    }
    results = {}
    try:
        for seed, proc in procs.items():
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            results[seed] = (proc.returncode, out, err)
        return results
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def test_every_output_agrees_across_hash_seeds():
    digests = []
    for seed, (code, out, err) in _run_probes().items():
        assert code == 0, f"probe under PYTHONHASHSEED={seed} exited {code}:\n{err}"
        digests.append(dict(line.split(" ") for line in out.splitlines()))
    first, second = digests
    assert {f"golden/{key}" for key in GOLDEN} <= first.keys()
    differ = sorted(
        name for name in first.keys() | second.keys()
        if first.get(name) != second.get(name)
    )
    assert not differ, (
        f"outputs differ between PYTHONHASHSEED={' and '.join(HASH_SEEDS)}: "
        + ", ".join(differ)
    )

"""The import rule: every module imports alone, and the layers load only downward.

Package ``__init__`` files re-export nothing (docs/architecture.md
§15), so importing one module loads only what that module names.
Every check runs in a child interpreter, so the modules this test
session already loaded cannot hide a missing import or a cycle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: What the run path must not load: the sanitizer, the sweep harness,
#: the fuzzer, the service, the torture harness, the validator, the CLI
#: and the process pool.
RUN_PATH_EXCLUDES = (
    "repro.analysis", "repro.parallel", "repro.fuzz", "repro.serve",
    "repro.storage.protocols", "repro.storage.torture", "repro.validate",
    "repro.cli", "multiprocessing", "concurrent.futures",
)


def _child(code: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` on the path; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, cwd=str(REPO_ROOT), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(module: str) -> list:
    """Every module name in ``sys.modules`` after a fresh ``import module``."""
    return json.loads(_child(f"""
        import json, sys
        import {module}
        print(json.dumps(sorted(sys.modules)))
    """))


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def test_engine_loads_only_the_sim_package():
    loaded = [m for m in _loaded_by("repro.sim.engine") if _under(m, "repro")]
    assert "repro.sim.engine" in loaded
    assert [m for m in loaded if m != "repro" and not _under(m, "repro.sim")] == []


def test_run_path_loads_no_harness():
    loaded = _loaded_by("repro.experiments.common")
    assert [m for m in loaded
            if any(_under(m, prefix) for prefix in RUN_PATH_EXCLUDES)] == []


def test_every_module_imports_alone():
    """Each ``src/repro`` module imports with no other ``repro`` module loaded.

    One child interpreter walks the modules in sorted order and drops
    every ``repro`` entry from ``sys.modules`` before each import, so a
    module that only imports because another one was loaded first
    fails here, by name.  ``repro`` itself also resolves every name in
    its ``__all__``, so a stale entry in its lazy name table fails too.
    """
    report = json.loads(_child("""
        import importlib, json, sys
        from pathlib import Path

        src = Path("src")
        names = sorted(
            ".".join(p.relative_to(src).with_suffix("").parts)
            for p in (src / "repro").rglob("*.py")
        )
        names = [n[: -len(".__init__")] if n.endswith(".__init__") else n
                 for n in names]
        failures = []
        for name in names:
            for loaded in [m for m in sys.modules
                           if m == "repro" or m.startswith("repro.")]:
                del sys.modules[loaded]
            try:
                module = importlib.import_module(name)
                if name == "repro":
                    [getattr(module, public) for public in module.__all__]
            except Exception as exc:
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
        print(json.dumps({"checked": names, "failures": failures}))
    """))
    assert {"repro", "repro.cli", "repro.sim.engine"} <= set(report["checked"])
    assert report["failures"] == [], "\n".join(report["failures"])

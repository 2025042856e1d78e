"""Digest every output the cross-process differential compares.

:mod:`tests.test_determinism` runs this module in two processes under
different ``PYTHONHASHSEED`` values and requires every line to agree.
Run it by hand from the repository root::

    PYTHONPATH=src python -m tests.determinism_probe

Each line is ``<name> <digest>``:

* ``golden/<key>`` for the 25 ``GOLDEN`` runs, digested as
  ``tests/test_spans`` pins them (result and trace sha256 prefixes);
* ``<command>/stdout`` for each CLI command in :data:`COMMANDS`, the
  sha256 of its stdout with the temporary directory replaced by
  :data:`DIR_TOKEN`;
* ``<command>/<file>`` for every file the command leaves in that
  directory (snapshots, the serve journal and stats), the sha256 of
  its bytes.

A command that exits non-zero, or raises, fails the probe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.cli import main as cli_main
from tests.test_spans import GOLDEN, _digest, golden_run

#: stands for the temporary directory in hashed stdout
DIR_TOKEN = "<dir>"

#: (name, argv) of each CLI command; ``{dir}`` becomes a fresh
#: temporary directory
COMMANDS: Tuple[Tuple[str, List[str]], ...] = (
    ("run-Equip-w1", ["--cpus", "32", "run", "Equip", "w1", "--load", "1.0"]),
    ("run-PDPA-w3-cpukill8", [
        "--cpus", "32", "run", "PDPA", "w3", "--load", "1.0",
        "--faults", "cpukill8",
    ]),
    ("run-PDPA-w1-checkpoint", [
        "--cpus", "32", "--checkpoint-dir", "{dir}",
        "run", "PDPA", "w1", "--load", "1.0",
    ]),
    ("serve-PDPA-w2", [
        "--seed", "7", "--cpus", "16", "--checkpoint-dir", "{dir}",
        "--checkpoint-every", "200", "serve", "PDPA", "--workload", "w2",
        "--load", "1.0", "--max-jobs", "300",
        "--journal", "{dir}/j.jsonl", "--stats-out", "{dir}/s.json",
    ]),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests() -> Iterator[Tuple[str, str]]:
    for key in sorted(GOLDEN):
        yield f"golden/{key}", _digest(golden_run(key))


def command_digests() -> Iterator[Tuple[str, str]]:
    for name, argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main([arg.replace("{dir}", tmp) for arg in argv])
            if code:
                raise SystemExit(f"{name}: exit code {code}")
            text = stdout.getvalue().replace(tmp, DIR_TOKEN)
            yield f"{name}/stdout", _sha256(text.encode())
            for path in sorted(Path(tmp).iterdir()):
                yield f"{name}/{path.name}", _sha256(path.read_bytes())


def main() -> None:
    for name, digest in (*golden_digests(), *command_digests()):
        print(name, digest)


if __name__ == "__main__":
    main()

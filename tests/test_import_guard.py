"""numpy is the only runtime dependency.

Each check runs in a fresh interpreter whose ``sys.meta_path`` refuses
scipy and networkx, so importing any ``repro`` module or running the CLI
fails loudly if one of them comes back. scipy stays a test-only oracle.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BLOCKER = textwrap.dedent(
    """
    import sys

    class Blocker:
        BLOCKED = ("scipy", "networkx")

        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in self.BLOCKED:
                raise ImportError(f"{name} is not a runtime dependency")
            return None

    sys.meta_path.insert(0, Blocker())
    """
)


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", BLOCKER + textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_every_module_imports_without_scipy_or_networkx():
    result = _run(
        """
        import importlib
        import pkgutil

        import repro

        names = [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        for name in names:
            importlib.import_module(name)
        assert "scipy" not in sys.modules and "networkx" not in sys.modules
        print(len(names))
        """
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[-1]) > 100


def test_cli_help_runs_without_scipy_or_networkx():
    result = _run(
        """
        import runpy

        sys.argv = ["repro", "--help"]
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
        """
    )
    assert result.returncode == 0, result.stderr
    assert "usage" in result.stdout

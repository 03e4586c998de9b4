"""lexmine's declared runtime dependencies are exactly the packages it imports."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lexmine

PACKAGE = Path(lexmine.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def imported_third_party() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"lexmine"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                for req in project["dependencies"]}
    assert declared == imported_third_party() == {"numpy"}


def test_lr_cross_validation_loads_no_scipy(tmp_path):
    lines = []
    for i in range(40):
        lines.append(f"positive\tfilm bagus sekali nomor {i}")
        lines.append(f"negative\tfilm buruk sekali nomor {i}")
    data = tmp_path / "data.tsv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    script = textwrap.dedent(f"""
        import sys
        import lexmine.cli
        assert "scipy" not in sys.modules, "after import"
        code = lexmine.cli.run(["sent", "cv", "--data", {str(data)!r},
                                "--mode", "train-tgt/test-tgt", "--algorithm", "lr",
                                "--vocab-size", "120", "--out", "report.json"])
        assert code == 0, code
        assert "scipy" not in sys.modules, "after sent cv"
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.json").exists()


def test_numpy_loads_only_for_logistic_regression(tmp_path):
    lines = []
    for i in range(40):
        lines.append(f"positive\tfilm bagus sekali nomor {i}")
        lines.append(f"negative\tfilm buruk sekali nomor {i}")
    data = tmp_path / "data.tsv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    script = textwrap.dedent(f"""
        import os
        import sys
        import lexmine.cli

        # one CPU: the folds run in this process, so their imports land here
        os.sched_getaffinity = lambda pid: {{0}}

        def sent_cv(algorithm):
            code = lexmine.cli.run(["sent", "cv", "--data", {str(data)!r},
                                    "--mode", "train-tgt/test-tgt", "--algorithm", algorithm,
                                    "--vocab-size", "120", "--out", algorithm + ".json"])
            assert code == 0, code

        assert "numpy" not in sys.modules, "numpy after import"
        sent_cv("nb")
        assert "numpy" not in sys.modules, "numpy after sent cv --algorithm nb"
        sent_cv("lr")
        assert "numpy" in sys.modules, "no numpy after sent cv --algorithm lr"
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "nb.json").exists()
    assert (tmp_path / "lr.json").exists()

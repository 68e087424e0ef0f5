"""The documentation's links and module references must resolve.

Runs the same checker as ``make docs-check`` (tools/check_docs_links.py)
so a stale module path or broken relative link in docs/ fails the test
suite, not just the CI lint step.
"""

import importlib.util
import pathlib


def _load_checker():
    path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "tools"
        / "check_docs_links.py"
    )
    spec = importlib.util.spec_from_file_location("check_docs_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_links_resolve():
    checker = _load_checker()
    offences = checker.check()
    assert offences == [], "\n".join(offences)


def test_checker_flags_broken_references(tmp_path, monkeypatch):
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "real.py").write_text(
        "import os.path\n"
        "from json import dumps as encode\n"
        "LIMIT: int = 3\n"
        "if LIMIT:\n"
        "    def present():\n"
        "        absent = 1\n",
        encoding="utf-8",
    )
    (docs / "bad.md").write_text(
        "[gone](missing.md) and `src/repro/never/was.py` and "
        "`repro.not_a.module`\n"
        "`repro.real.present`, `repro.real.encode`, `repro.real.LIMIT`, "
        "`repro.real.os` and `repro/real.py` resolve\n"
        "`repro.real.absent` is not top-level and `repro/gone.py` is gone\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    offences = checker.check()
    assert len(offences) == 5, offences
    assert any("broken link" in o for o in offences)
    for problem in (
        "missing path: `src/repro/never/was.py`",
        "unresolvable module: `repro.not_a.module`",
        "unresolvable module: `repro.real.absent`",
        "missing path: `repro/gone.py`",
    ):
        assert any(problem in o for o in offences), problem

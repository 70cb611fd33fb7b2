"""Seeded true-positive fixtures for the EMI1xx rule family plus the
project-rule runner plumbing (package discovery, pragma suppression of
project findings, EMI007 staleness)."""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import emissary
from emissary.analysis.lint import lint_paths, lint_source, package_roots


def make_pkg(tmp_path, files: dict[str, str], name: str = "pkg") -> str:
    root = tmp_path / name
    root.mkdir()
    (root / "__init__.py").write_text("")
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if not (path.parent / "__init__.py").exists():
            (path.parent / "__init__.py").write_text("")
        path.write_text(textwrap.dedent(source))
    return str(root)


def codes_of(report, code):
    return [v for v in report.violations if v.code == code]


# -- EMI101: interprocedural kernel purity ----------------------------------


def test_emi101_clock_two_calls_below_entry_point(tmp_path):
    """The acceptance fixture: time.time() two hops below run_set."""
    root = make_pkg(tmp_path, {
        "policies/lru.py": """
            from pkg.helpers import outer

            class LRU:
                def run_set(self, xs):
                    return outer(xs)
        """,
        "helpers.py": """
            import time

            def outer(xs):
                return inner(xs)

            def inner(xs):
                return time.time()
        """,
    })
    report = lint_paths([root], select=["EMI101"])
    findings = codes_of(report, "EMI101")
    assert len(findings) == 1
    v = findings[0]
    assert v.path.endswith("policies/lru.py")
    assert v.line == 5  # anchored at the entry-point def
    assert "time.time" in v.message and "wall-clock" in v.message
    assert "outer -> inner" in v.message


def test_emi101_clean_kernel_passes(tmp_path):
    root = make_pkg(tmp_path, {
        "policies/ok.py": """
            class OK:
                def run_set(self, xs):
                    return self._score(xs)

                def _score(self, xs):
                    return sorted(xs)
        """,
    })
    report = lint_paths([root], select=["EMI101"])
    assert codes_of(report, "EMI101") == []


def test_emi101_suppressible_at_entry_point(tmp_path):
    root = make_pkg(tmp_path, {
        "policies/lru.py": """
            import time

            class LRU:
                def run_set(self, xs):  # emi: ignore[EMI101]
                    return time.time()
        """,
    })
    report = lint_paths([root], select=["EMI101"])
    assert codes_of(report, "EMI101") == []


def test_emi101_reaches_through_lru_run_sets(tmp_path):
    """A clock two hops below the real ``LRUKernel.run_sets`` (in its
    window scan) is reported against that entry point."""
    tree = tmp_path / "emissary"
    shutil.copytree(Path(emissary.__file__).parent, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    lru = tree / "policies" / "lru.py"
    source = lru.read_text()
    for anchor, injected in (
            ("import numpy as np\n", "import time\n\nimport numpy as np\n"),
            ("    first = prev[owners]\n",
             "    time.time()\n    first = prev[owners]\n")):
        assert source.count(anchor) == 1, anchor
        source = source.replace(anchor, injected)
    lru.write_text(source)
    report = lint_paths([str(tree)], select=["EMI101"])
    findings = [v for v in codes_of(report, "EMI101")
                if "LRUKernel.run_sets" in v.message]
    assert len(findings) == 1
    v = findings[0]
    assert v.path.endswith("policies/lru.py")
    assert "time.time" in v.message and "wall-clock" in v.message
    assert "_closed_form_hits -> _scan_windows" in v.message


def test_repo_kernels_prove_pure():
    """EMI101 over the real tree: the paper's determinism claim, as a
    reachability proof with zero suppressions in policy code."""
    report = lint_paths(["src"], select=["EMI101"])
    assert codes_of(report, "EMI101") == []


# -- EMI102: blocking calls in async def ------------------------------------


def test_emi102_fixtures():
    src = textwrap.dedent("""
        import time

        async def handler(executor, fut):
            time.sleep(1)
            open("x")
            executor.submit(f).result()
            fut.result()
    """)
    found = [v.code for v in lint_source(src, select=["EMI102"])]
    # time.sleep, open, submit().result() — but NOT fut.result(), whose
    # receiver is not executor-shaped (asyncio.Task.result() after an
    # await is non-blocking and must not be flagged).
    assert found == ["EMI102"] * 3


def test_emi102_ignores_sync_defs_and_nested_callbacks():
    src = textwrap.dedent("""
        import time

        def plain():
            time.sleep(1)

        async def handler(loop):
            def cb():
                time.sleep(1)
            await loop.run_in_executor(None, cb)
    """)
    assert lint_source(src, select=["EMI102"]) == []


# -- EMI103: discarded coroutines/tasks -------------------------------------


def test_emi103_fixtures():
    src = textwrap.dedent("""
        import asyncio

        async def work():
            pass

        async def main(loop):
            asyncio.create_task(work())
            work()
            await work()
            task = asyncio.create_task(work())
            await task
    """)
    found = lint_source(src, select=["EMI103"])
    assert [v.code for v in found] == ["EMI103", "EMI103"]
    assert "create_task" in found[0].message
    assert "never awaited" in found[1].message


# -- EMI104: fork reachable from async --------------------------------------


def test_emi104_fork_below_async_flagged_at_construction_site(tmp_path):
    root = make_pkg(tmp_path, {
        "serve.py": """
            from concurrent.futures import ProcessPoolExecutor

            class Service:
                async def run(self):
                    self._rebuild()

                def _rebuild(self):
                    self._pool = self._make()

                def _make(self):
                    return ProcessPoolExecutor(max_workers=2)
        """,
    })
    report = lint_paths([root], select=["EMI104"])
    findings = codes_of(report, "EMI104")
    assert len(findings) == 1
    v = findings[0]
    assert v.path.endswith("serve.py")
    assert v.line == 12  # the construction site, where the pragma goes
    assert "Service.run" in v.message


def test_emi104_prefork_in_sync_init_is_clean(tmp_path):
    root = make_pkg(tmp_path, {
        "serve.py": """
            from concurrent.futures import ProcessPoolExecutor

            class Service:
                def __init__(self):
                    self._pool = ProcessPoolExecutor(max_workers=2)

                async def run(self):
                    return self._pool
        """,
    })
    report = lint_paths([root], select=["EMI104"])
    assert codes_of(report, "EMI104") == []


# -- EMI105: shared-state writes in coroutines ------------------------------


def test_emi105_fixtures():
    src = textwrap.dedent("""
        async def handler(self):
            self._count += 1

        async def locked(self):
            async with self._lock:
                self._count += 1

        async def module_global():
            global counter
            counter = 1

        async def locals_ok():
            x = 1
            return x
    """)
    found = lint_source(src, select=["EMI105"])
    assert [v.code for v in found] == ["EMI105", "EMI105"]
    assert "self._count" in found[0].message
    assert "counter" in found[1].message


# -- runner plumbing --------------------------------------------------------


def test_package_roots_discovers_children_and_packages(tmp_path):
    make_pkg(tmp_path, {"a.py": "x = 1\n"}, name="inner")
    (tmp_path / "loose.py").write_text("x = 1\n")
    roots = package_roots([tmp_path])
    assert [(str(p), name) for p, name in roots] == [
        (str(tmp_path / "inner"), "inner")]
    # A package dir given directly is its own root.
    assert package_roots([tmp_path / "inner"]) == [
        (tmp_path / "inner", "inner")]
    # Non-package trees contribute none.
    assert package_roots([tmp_path / "missing"]) == []


def test_emi007_stale_project_rule_pragma_is_flagged(tmp_path):
    root = make_pkg(tmp_path, {
        "policies/ok.py": """
            class OK:
                def run_set(self, xs):  # emi: ignore[EMI101]
                    return xs
        """,
    })
    report = lint_paths([root])
    stale = codes_of(report, "EMI007")
    assert len(stale) == 1
    assert "EMI101" in stale[0].message


def test_emi007_not_judged_for_unexecuted_rules(tmp_path):
    root = make_pkg(tmp_path, {
        "mod.py": "x = 1  # emi: ignore[EMI005]\n",
    })
    # EMI005 did not run in this selection, so its pragma is not judged.
    report = lint_paths([root], select=["EMI001", "EMI007"])
    assert codes_of(report, "EMI007") == []
    # On a full run it is stale.
    report = lint_paths([root])
    assert len(codes_of(report, "EMI007")) == 1

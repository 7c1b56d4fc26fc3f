"""Documentation stays true: links resolve, snippets parse, modules
are documented.

Three enforcement layers over ``README.md`` + ``docs/*.md``:

- every intra-repo markdown link, and every backticked repo path
  (``src/…``, ``benchmarks/…``, ``tests/…``, ``examples/…``,
  ``docs/…``), points at a file that exists;
- every fenced ``python`` snippet compiles and every fenced ``bash``
  snippet passes ``bash -n`` (documentation code must at least parse);
- every public module under ``src/repro/`` carries a module docstring
  (a pydocstyle-D100-style check, without the dependency).
"""

from __future__ import annotations

import ast
import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_LINK = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```(\w+)?\n(.*?)```", re.DOTALL)
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_REPO_ROOTS = ("src/", "benchmarks/", "tests/", "examples/", "docs/")
#: git-ignored output directories: what is written there need not exist
_OUTPUT_DIRS = ("benchmarks/results/", "benchmarks/e2e/.work/")


def doc_files() -> list[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def broken_links(path: Path) -> list[str]:
    """Intra-repo links in one markdown file that do not resolve."""
    problems = []
    for match in _LINK.finditer(path.read_text(encoding="utf-8")):
        text, target = match.groups()
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            problems.append(f"{path.name}: [{text}]({target}) -> missing")
    return problems


def dangling_paths(path: Path) -> list[str]:
    """Backticked repo paths in one markdown file that do not exist.

    A ``:line`` or ``::test`` suffix is dropped, and a path with a
    ``*`` must match at least one file.
    """
    prose = _FENCE.sub("", path.read_text(encoding="utf-8"))
    problems = []
    for span in _CODE_SPAN.findall(prose):
        for token in span.split():
            if not token.startswith(_REPO_ROOTS) or token.startswith(
                _OUTPUT_DIRS
            ):
                continue
            relative = token.split(":", 1)[0]
            if "*" in relative:
                found = any(REPO.glob(relative))
            else:
                found = (REPO / relative).exists()
            if not found:
                problems.append(f"{path.name}: `{span}` -> missing")
    return problems


def fenced_snippets(path: Path, language: str) -> list[tuple[int, str]]:
    """(line, code) for each fenced block tagged with ``language``."""
    text = path.read_text(encoding="utf-8")
    snippets = []
    for match in _FENCE.finditer(text):
        tag, code = match.groups()
        if tag == language:
            line = text[: match.start()].count("\n") + 1
            snippets.append((line, code))
    return snippets


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_intra_repo_links_resolve(path):
    assert broken_links(path) == []


def test_checker_flags_a_broken_link(tmp_path):
    """The guard itself works: a dead relative link is reported."""
    page = tmp_path / "page.md"
    page.write_text(
        "Fine: [web](https://example.com) and [anchor](#section).\n"
        "Broken: [gone](no/such/file.md)\n",
        encoding="utf-8",
    )
    problems = broken_links(page)
    assert len(problems) == 1
    assert "no/such/file.md" in problems[0]


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_backticked_repo_paths_exist(path):
    assert dangling_paths(path) == []


def test_checker_flags_a_dangling_code_path(tmp_path):
    """A backticked path to a file that is gone is reported; suffixes,
    globs and the git-ignored output directories are understood."""
    page = tmp_path / "page.md"
    page.write_text(
        "Fine: `src/repro/cli.py:97`, `tests/docs/test_docs.py::"
        "test_checker_flags_a_broken_link`, `docs/*.md`, "
        "`benchmarks/results/BENCH_x.json`, `python3 "
        "benchmarks/e2e/run.py --smoke`.\n"
        "Dangling: `benchmarks/bench_gone.py`\n"
        "```bash\ncat src/fenced/blocks/are/not/prose.py\n```\n",
        encoding="utf-8",
    )
    problems = dangling_paths(page)
    assert len(problems) == 1
    assert "benchmarks/bench_gone.py" in problems[0]


def test_docs_cross_link_each_other():
    """The documented architecture is navigable: the index page links
    every docs/*.md file, and the deep dives link back."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for doc in sorted((REPO / "docs").glob("*.md")):
        assert f"docs/{doc.name}" in readme, (
            f"README.md does not link docs/{doc.name}"
        )


# ---------------------------------------------------------------------------
# snippets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_python_snippets_compile(path):
    for line, code in fenced_snippets(path, "python"):
        try:
            compile(code, f"{path.name}:{line}", "exec")
        except SyntaxError as exc:
            pytest.fail(
                f"{path.name} line {line}: python snippet does not "
                f"compile: {exc}"
            )


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_bash_snippets_parse(path):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash not available")
    for line, code in fenced_snippets(path, "bash"):
        result = subprocess.run(
            [bash, "-n"], input=code, capture_output=True, text=True
        )
        assert result.returncode == 0, (
            f"{path.name} line {line}: bash snippet does not parse:\n"
            f"{result.stderr}"
        )


# ---------------------------------------------------------------------------
# module docstrings (pydocstyle D100, minus the dependency)
# ---------------------------------------------------------------------------


def test_every_public_module_has_a_docstring():
    missing = []
    for module in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(
            module.read_text(encoding="utf-8"), filename=str(module)
        )
        if ast.get_docstring(tree) is None:
            missing.append(str(module.relative_to(REPO)))
    assert missing == [], (
        "modules lacking a module docstring: " + ", ".join(missing)
    )

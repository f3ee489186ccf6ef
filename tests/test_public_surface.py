"""Every public name in ``src/repro`` has a caller.

The scan walks ``src/repro`` with :mod:`ast` and collects the public
top-level functions and classes, plus the public methods and properties of
top-level classes.  Each name must appear as a whole word somewhere in
``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` outside its own
definition (decorators included).  Import statements and ``__all__`` lists
do not count: re-exporting a name is not calling it.  Tests do not count
either, so a name only tests use has no caller.

This is a lower bound on dead surface, not a proof of use.  The match is
textual, so a common name such as ``run`` or ``describe`` passes whenever
the same word appears anywhere else, in code, a comment or a docstring.

``ALLOWLIST`` names the few members kept on purpose without a caller, one
reason each; an entry that gains a caller must leave the list.
"""

from __future__ import annotations

import ast
import functools
import re
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "benchmarks", "perfbench")

ALLOWLIST = {
    "ParityCheckMatrix.is_codeword": "test oracle: the codeword check of the LDPC tests",
    "TurboEncoder.bits_to_symbols": "test oracle: packs reference bits in the turbo tests",
    "DesignSpaceExplorer.evaluate_turbo_point": "kept for the fidelity work (ROADMAP 1, 3)",
    "NocDecoderArchitecture.decode_turbo_frame": "kept for the fidelity work (ROADMAP 1, 3)",
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uncounted_lines(tree: ast.Module) -> set[int]:
    """Line numbers of import statements and ``__all__`` assignments.

    Walks statement bodies only: neither can hide inside an expression.
    """
    lines: set[int] = set()
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
        for field in ("body", "orelse", "finalbody", "handlers"):
            stack.extend(getattr(node, field, ()))
    return lines


def _public_definitions(tree: ast.Module):
    """``(qualified name, first line, last line)`` of every public definition."""

    def span(node):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return first, node.end_lineno

    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        if not node.name.startswith("_"):
            yield (node.name, *span(node))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS[:2]) and not member.name.startswith("_"):
                    yield (f"{node.name}.{member.name}", *span(member))


@functools.cache
def _scan(root: Path = ROOT) -> tuple[list[tuple[str, str]], int]:
    """The ``(module path, qualified name)`` pairs with no caller under
    ``root``, and the number of public definitions scanned."""
    totals: Counter[str] = Counter()
    word_lines: dict[Path, dict[str, list[int]]] = {}
    definitions: list[tuple[Path, str, int, int]] = []
    for directory in SCANNED:
        for path in sorted((root / directory).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
            skipped = _uncounted_lines(tree)
            lines: dict[str, list[int]] = defaultdict(list)
            for number, text in enumerate(source.splitlines(), start=1):
                if number not in skipped:
                    for word in _WORD.findall(text):
                        lines[word].append(number)
            for word, numbers in lines.items():
                totals[word] += len(numbers)
            word_lines[path] = lines
            if directory == "src":
                definitions.extend(
                    (path, qualified, first, last)
                    for qualified, first, last in _public_definitions(tree)
                )
    dead = []
    for path, qualified, first, last in definitions:
        name = qualified.rsplit(".", 1)[-1]
        own = word_lines[path].get(name, [])
        inside = bisect_right(own, last) - bisect_left(own, first)
        if totals[name] == inside:
            dead.append((str(path.relative_to(root)), qualified))
    return dead, len(definitions)


def test_every_public_name_has_a_caller():
    dead, scanned = _scan()
    assert scanned > 300, f"only {scanned} public definitions found; is the scan broken?"
    unexpected = [f"{path}: {name}" for path, name in dead if name not in ALLOWLIST]
    assert not unexpected, (
        "public names with no caller in src/, examples/, benchmarks/ or perfbench/ "
        "(delete them, or add an ALLOWLIST entry with its reason):\n  "
        + "\n  ".join(unexpected)
    )


def test_allowlist_holds_only_names_without_a_caller():
    dead, _ = _scan()
    stale = sorted(set(ALLOWLIST) - {name for _, name in dead})
    assert not stale, f"allowlisted names that now have a caller or no longer exist: {stale}"


# --------------------------------------------------------------------- #
# The scan itself, on small trees
# --------------------------------------------------------------------- #
def _tree(tmp_path: Path, files: dict[str, str]) -> list[tuple[str, str]]:
    """Write ``files`` under ``tmp_path`` and return the scan's dead names."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    dead, _ = _scan(tmp_path)
    return dead


def test_scan_reports_a_function_nothing_calls(tmp_path):
    dead = _tree(tmp_path, {
        "src/pkg/mod.py": "def used():\n    return 1\n\ndef unused():\n    return used()\n",
    })
    assert dead == [("src/pkg/mod.py", "unused")]


def test_scan_counts_callers_in_every_scanned_directory(tmp_path):
    dead = _tree(tmp_path, {
        "src/pkg/mod.py": (
            "class Box:\n"
            "    def size(self):\n        return 0\n"
            "    @property\n    def empty(self):\n        return True\n"
            "    def spare(self):\n        return None\n"
        ),
        "examples/demo.py": "print(Box().size())\n",
        "benchmarks/bench_box.py": "assert Box().empty\n",
    })
    assert dead == [("src/pkg/mod.py", "Box.spare")]


def test_scan_ignores_imports_and_all_lists(tmp_path):
    dead = _tree(tmp_path, {
        "src/pkg/mod.py": "def helper():\n    return 1\n",
        "src/pkg/__init__.py": (
            "from pkg.mod import (\n    helper,\n)\n__all__ = [\n    \"helper\",\n]\n"
        ),
    })
    assert dead == [("src/pkg/mod.py", "helper")]


def test_scan_ignores_tests(tmp_path):
    dead = _tree(tmp_path, {
        "src/pkg/mod.py": "def oracle():\n    return 1\n",
        "tests/test_mod.py": "def test_oracle():\n    assert oracle() == 1\n",
    })
    assert dead == [("src/pkg/mod.py", "oracle")]


def test_scan_ignores_uses_inside_the_definition(tmp_path):
    # Recursion and a decorator that names the function are not callers.
    dead = _tree(tmp_path, {
        "src/pkg/mod.py": (
            "def register(name):\n    return lambda f: f\n\n"
            "@register(\"walk\")\n"
            "def walk(n):\n    return walk(n - 1) if n else 0\n\n"
            "register(None)\n"
        ),
    })
    assert dead == [("src/pkg/mod.py", "walk")]


def test_scan_skips_private_and_nested_definitions(tmp_path):
    dead = _tree(tmp_path, {
        "src/pkg/mod.py": (
            "def _private():\n    return 1\n\n"
            "class Outer:\n"
            "    def _hidden(self):\n        return 2\n"
            "    class Inner:\n        def method(self):\n            return 3\n"
            "    def __len__(self):\n        return 0\n"
            "\n"
            "def outer():\n    def nested():\n        return 4\n    return Outer\n"
        ),
        "examples/demo.py": "outer()\n",
    })
    # ``Outer.Inner`` is a public class member but not a method: only
    # functions are scanned inside a class body.
    assert dead == []


def test_scan_matches_whole_words_only(tmp_path):
    dead = _tree(tmp_path, {
        "src/pkg/mod.py": "def rate():\n    return 1\n",
        "examples/demo.py": "code_rate = 0.5\nrates = [code_rate]\n",
    })
    assert dead == [("src/pkg/mod.py", "rate")]

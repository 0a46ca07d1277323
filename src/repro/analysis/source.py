"""Parsed source tree the rules analyse.

One :class:`SourceFile` per ``.py`` file: the raw text, the parsed
``ast`` tree, and the per-line ``# repro: noqa[...]`` suppressions.  A
:class:`SourceTree` loads a whole directory (or an explicit file list)
once so every rule walks the same parse — rules never touch the
filesystem themselves, which is also what makes them trivially testable
against fixture trees in ``tmp_path``.

Suppression syntax (checked on the finding's anchor line):

* ``# repro: noqa`` — suppress every rule on this line;
* ``# repro: noqa[rule-id]`` / ``# repro: noqa[a, b]`` — suppress only
  the named rule(s), case-insensitively.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ConfigurationError

__all__ = ["SourceFile", "SourceTree", "NOQA_PATTERN"]

#: ``# repro: noqa`` with an optional bracketed rule list.
NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[^\]]*)\])?", re.IGNORECASE
)

#: Suppress-everything marker stored in the per-line table.
_ALL = "*"


def _noqa_lines(text: str) -> dict[int, set[str]]:
    """Map 1-based line number -> suppressed rule ids (``{"*"}`` = all)."""
    table: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" not in line:
            continue
        match = NOQA_PATTERN.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = {_ALL}
        else:
            table[lineno] = {
                rule.strip().lower() for rule in rules.split(",") if rule.strip()
            } or {_ALL}
    return table


@dataclass
class SourceFile:
    """One parsed module: text, tree, and noqa table."""

    path: Path          # absolute
    rel: str            # posix path relative to the analysis root
    text: str
    tree: ast.Module | None          # None when the file failed to parse
    parse_error: str | None = None
    noqa: dict[int, set[str]] = field(default_factory=dict)

    def suppresses(self, rule: str, line: int) -> bool:
        rules = self.noqa.get(line)
        if rules is None:
            return False
        return _ALL in rules or rule.lower() in rules


class SourceTree:
    """Every parsed ``.py`` file under the configured roots."""

    def __init__(self, root: Path, files: list[SourceFile]) -> None:
        self.root = root
        self.files = files
        self._by_rel = {f.rel: f for f in files}

    @classmethod
    def load(cls, root: str | Path, paths: Iterable[Path]) -> "SourceTree":
        root = Path(root).resolve()
        files: list[SourceFile] = []
        seen: set[Path] = set()
        for path in paths:
            path = Path(path).resolve()
            if path in seen:
                continue
            seen.add(path)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigurationError(f"cannot read {path}: {exc}") from exc
            try:
                rel = path.relative_to(root).as_posix()
            except ValueError:
                rel = path.as_posix()
            tree: ast.Module | None
            error: str | None = None
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:
                tree = None
                error = f"{exc.msg} (line {exc.lineno})"
            files.append(SourceFile(
                path=path, rel=rel, text=text, tree=tree,
                parse_error=error, noqa=_noqa_lines(text),
            ))
        files.sort(key=lambda f: f.rel)
        return cls(root, files)

    @classmethod
    def load_directory(cls, root: str | Path,
                       directories: Iterable[Path],
                       extra_files: Iterable[Path] = ()) -> "SourceTree":
        paths: list[Path] = []
        for directory in directories:
            directory = Path(directory)
            if not directory.is_dir():
                raise ConfigurationError(f"not a directory: {directory}")
            paths.extend(sorted(directory.rglob("*.py")))
        paths.extend(Path(p) for p in extra_files)
        return cls.load(root, paths)

    # -- lookups the rules share ------------------------------------------------------

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)

    def get(self, rel: str) -> SourceFile | None:
        return self._by_rel.get(rel)

    def find_suffix(self, suffix: str) -> SourceFile | None:
        """The unique file whose relative path ends with ``suffix``.

        Anchors rules to project modules (``runtime/worker.py``) while
        letting fixtures provide a flat ``worker.py``.
        """
        matches = [
            f for f in self.files
            if f.rel == suffix or f.rel.endswith("/" + suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            # Fixture layout: accept a bare basename match.
            base = suffix.rsplit("/", 1)[-1]
            basenames = [f for f in self.files if f.rel.rsplit("/", 1)[-1] == base]
            if len(basenames) == 1:
                return basenames[0]
        return None

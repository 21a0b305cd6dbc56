"""The ``igepa lint`` rule engine: AST walking, suppressions, reporting.

The last five PRs made correctness depend on unwritten contracts — the
zero-copy index build off :class:`~repro.model.columnar.ColumnarStore`,
bit-identical delta patches, CSR invariants, seeded-RNG determinism.
Integration parity tests catch violations only after the damage is done;
this engine enforces them at review time, on the source itself.

The moving parts:

* :class:`Finding` — one violation: error code, location, message, fix hint.
* :class:`Rule` — a check over one parsed module.  Rules declare the module
  suffixes they apply to (``module_suffixes``); ``None`` means every file.
* :class:`FileContext` — the parsed source a rule sees: path, AST, source
  lines and the per-line suppression table.
* :func:`lint_source` / :func:`lint_file` / :func:`lint_paths` — entry
  points; :func:`main` is the CLI behind ``igepa lint`` and
  ``python -m repro.analysis_tools``.

Suppressions are per line and per code::

    for i in range(store.num_users):  # igepa: ignore[IGP001] -- sanctioned

A suppression names the codes it silences (``ignore[IGP001,IGP005]``);
there is deliberately no file-level or bare ``ignore`` form — every
suppression is a reviewed, per-line decision.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: ``# igepa: ignore[IGP001]`` or ``# igepa: ignore[IGP001,IGP005]``.
_SUPPRESSION_RE = re.compile(r"#\s*igepa:\s*ignore\[([A-Z0-9_,\s]+)\]")

#: Code used for files the engine cannot parse.
PARSE_ERROR_CODE = "IGP000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    #: line number -> set of suppressed codes on that line.
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )

    def matches_module(self, suffixes: Sequence[str] | None) -> bool:
        """Whether this file is in a rule's module scope.

        Suffix matching (``repro/model/index.py``) keeps rules independent
        of where the tree is checked out — and lets fixture tests trigger
        module-scoped rules by naming their virtual file accordingly.
        """
        if suffixes is None:
            return True
        normalized = Path(self.path).as_posix()
        return any(
            normalized == suffix or normalized.endswith("/" + suffix)
            for suffix in suffixes
        )

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.suppressions.get(finding.line)
        return codes is not None and finding.code in codes


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line ``# igepa: ignore[...]`` table (1-based line numbers)."""
    table: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match:
            codes = frozenset(
                code.strip() for code in match.group(1).split(",") if code.strip()
            )
            table[lineno] = codes
    return table


class Rule:
    """Base class: one named check over one parsed module."""

    #: Error code, e.g. ``"IGP001"``.  Unique across the registry.
    code: str = ""
    #: Short kebab-case name for listings.
    name: str = ""
    #: One-line fix hint attached to every finding.
    hint: str = ""
    #: Module-path suffixes the rule applies to; ``None`` = every file.
    module_suffixes: tuple[str, ...] | None = None

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        return Finding(
            code=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint if hint is None else hint,
        )


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last component of a Name/Attribute chain (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def root_name(node: ast.AST) -> str | None:
    """The first component of a Name/Attribute/Subscript/Call chain."""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return None


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, sorted, deduplicated."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_source(
    source: str, path: str = "<string>", rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one source string (the testing/fixture entry point).

    ``path`` both labels findings and selects module-scoped rules — pass a
    virtual path like ``repro/model/index.py`` to run hot-path rules on a
    snippet.
    """
    if rules is None:
        rules = default_rules()
    try:
        ctx = FileContext.from_source(source, path)
    except SyntaxError as exc:
        return [
            Finding(
                code=PARSE_ERROR_CODE,
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"cannot parse file: {exc.msg}",
            )
        ]
    findings: list[Finding] = []
    for rule in rules:
        if not ctx.matches_module(rule.module_suffixes):
            continue
        findings.extend(
            f for f in rule.check(ctx) if not ctx.is_suppressed(f)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_file(path: Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [
            Finding(
                code=PARSE_ERROR_CODE,
                path=str(path),
                line=1,
                col=0,
                message=f"cannot read file: {exc}",
            )
        ]
    return lint_source(source, path=str(path), rules=rules)


def lint_paths(
    paths: Iterable[str], rules: Sequence[Rule] | None = None
) -> tuple[list[Finding], int]:
    """Lint files and directories.  Returns (findings, files scanned)."""
    if rules is None:
        rules = default_rules()
    findings: list[Finding] = []
    scanned = 0
    for path in iter_python_files(paths):
        scanned += 1
        findings.extend(lint_file(path, rules=rules))
    return findings, scanned


def default_rules() -> list[Rule]:
    """The registered repo-specific rules, in code order."""
    from repro.analysis_tools.rules import ALL_RULES

    return [cls() for cls in ALL_RULES]


def format_text(findings: Sequence[Finding], scanned: int) -> str:
    lines = [finding.render() for finding in findings]
    noun = "file" if scanned == 1 else "files"
    lines.append(
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
        f"in {scanned} {noun}"
    )
    return "\n".join(lines)


def format_json(findings: Sequence[Finding], scanned: int) -> str:
    payload = {
        "format_version": 1,
        "tool": "igepa-lint",
        "files_scanned": scanned,
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igepa lint",
        description=(
            "AST-based invariant checker for the igepa codebase: guards the "
            "array/columnar contracts (zero-copy builds, delta purity, RNG "
            "discipline, shard-worker isolation, ...)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json is machine-readable for CI annotation)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated list of codes to enable (default: all)",
    )
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            scope = (
                "all files"
                if rule.module_suffixes is None
                else ", ".join(rule.module_suffixes)
            )
            print(f"{rule.code}  {rule.name}\n    scope: {scope}")
        return 0
    if args.select:
        wanted = {code.strip() for code in args.select.split(",") if code.strip()}
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            print(f"unknown rule codes: {sorted(unknown)}", file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.code in wanted]
    findings, scanned = lint_paths(args.paths, rules=rules)
    report = (
        format_json(findings, scanned)
        if args.format == "json"
        else format_text(findings, scanned)
    )
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    if any(finding.code == PARSE_ERROR_CODE for finding in findings):
        return 2
    return 1 if findings else 0

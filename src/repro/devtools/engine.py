"""Rule engine for the ``repro`` determinism linter.

The repo's headline guarantees are determinism contracts: byte-identical
:class:`~repro.scheduler.report.ClusterReport` JSON per seed, bit-for-bit
batched-vs-reference replay equality, sha256 spec digests as cache keys.  Those
contracts rest on coding rules (seeded RNG only, no wall-clock reads in
engine code, ordered iteration over fault sets, frozen specs) that nothing
used to enforce.  This module is the framework that machine-checks them:
findings, configuration, ``# repro: allow[...]`` suppression comments, and
the per-file driver.  The concrete D0xx rules live in
:mod:`repro.devtools.rules`; the command-line front end in
:mod:`repro.devtools.lint`.

Configuration is read from ``[tool.repro-lint]`` in ``pyproject.toml``
(kebab-case keys).  The built-in defaults mirror the repository's committed
configuration, so the linter behaves identically when no ``pyproject.toml``
is found (or when :mod:`tomllib` is unavailable on Python 3.10).
"""

from __future__ import annotations

import ast
import fnmatch
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python 3.10 fallback
    tomllib = None  # type: ignore[assignment]

#: Inline suppression comment: ``# repro: allow[D001]`` / ``allow[D001, D003]``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)\]")

_CODE_RE = re.compile(r"^[A-Z]\d{3}$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation (or suppressed violation) at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    module: str = ""

    def render(self) -> str:
        """Human-readable one-liner in the classic ``path:line:col`` shape."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "module": self.module,
        }


@dataclass(frozen=True)
class LintConfig:
    """Linter configuration (``[tool.repro-lint]`` in ``pyproject.toml``).

    Module lists are dotted-prefix filters: ``"repro.scheduler"`` matches the
    package and everything below it.

    >>> config = LintConfig()
    >>> config.applies("repro.scheduler.engine", config.ordered_modules)
    True
    >>> config.applies("repro.simulation.cluster", config.ordered_modules)
    False
    """

    #: Modules where unseeded RNG (D001) and wall-clock reads (D002) are
    #: forbidden.  Everything under ``repro`` is engine code; benchmarks and
    #: scripts live outside ``src/``.
    engine_modules: tuple[str, ...] = ("repro",)
    #: Modules whose outputs feed reports or digests: unordered set iteration
    #: (D003) and bare float accumulation (D004) are forbidden here.
    ordered_modules: tuple[str, ...] = (
        "repro.api",
        "repro.scheduler",
        "repro.faults",
        "repro.analysis",
        "repro.hbd.base",
        "repro.hbd.registry",
        "repro.mc",
    )
    #: Modules whose dataclasses are serialized specs and must be frozen (D006).
    spec_modules: tuple[str, ...] = (
        "repro.api.spec",
        "repro.scheduler.jobs",
        "repro.scheduler.report",
        "repro.scheduler.workload",
    )
    #: Modules allowed to accumulate floats bare (D004) because they *are* the
    #: shared accumulators (``empirical_cdf``, ``weighted_quantile``, ``left_sum``).
    accumulation_allow_modules: tuple[str, ...] = ("repro.analysis.cdf",)
    #: Rule codes disabled globally.
    ignore: tuple[str, ...] = ()
    #: Path glob patterns skipped entirely.
    exclude: tuple[str, ...] = ()
    #: Mapping of path glob -> rule codes ignored for matching files.
    per_file_ignores: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @staticmethod
    def applies(module: str, prefixes: Sequence[str]) -> bool:
        """True when ``module`` equals or lives under one of ``prefixes``."""
        return any(module == p or module.startswith(p + ".") for p in prefixes)

    def ignored_codes_for(self, path: str) -> set[str]:
        codes = set(self.ignore)
        posix = Path(path).as_posix()
        for pattern, extra in self.per_file_ignores:
            if fnmatch.fnmatch(posix, pattern) or fnmatch.fnmatch(Path(posix).name, pattern):
                codes.update(extra)
        return codes

    @classmethod
    def from_mapping(cls, data: dict[str, Any]) -> LintConfig:
        """Build a config from a parsed ``[tool.repro-lint]`` table."""
        known = {f.name for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for raw_key, value in data.items():
            key = raw_key.replace("-", "_")
            if key not in known:
                raise ValueError(f"unknown [tool.repro-lint] key: {raw_key!r}")
            if key == "per_file_ignores":
                if not isinstance(value, dict):
                    raise ValueError("per-file-ignores must be a table of glob -> code list")
                kwargs[key] = tuple(
                    (pattern, tuple(_check_codes(codes, raw_key)))
                    for pattern, codes in sorted(value.items())
                )
            elif key == "ignore":
                kwargs[key] = tuple(_check_codes(value, raw_key))
            else:
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise ValueError(f"[tool.repro-lint] {raw_key} must be a list of strings")
                kwargs[key] = tuple(value)
        return cls(**kwargs)

    @classmethod
    def from_pyproject(cls, path: Path) -> LintConfig:
        """Load ``[tool.repro-lint]`` from a ``pyproject.toml`` file."""
        if tomllib is None:  # pragma: no cover - Python 3.10 fallback
            raise RuntimeError(
                "tomllib is unavailable (Python < 3.11); "
                "run the linter with its built-in defaults instead of --config"
            )
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("repro-lint", {})
        return cls.from_mapping(table)


def _check_codes(codes: Any, key: str) -> list[str]:
    if not isinstance(codes, list) or not all(
        isinstance(c, str) and _CODE_RE.match(c) for c in codes
    ):
        raise ValueError(f"[tool.repro-lint] {key} entries must be rule codes like 'D001'")
    return codes


def find_pyproject(start: Path) -> Path | None:
    """Walk up from ``start`` looking for a ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(start: Path | None = None) -> LintConfig:
    """Locate and load the nearest ``pyproject.toml`` config, else defaults."""
    pyproject = find_pyproject(start or Path.cwd())
    if pyproject is None or tomllib is None:
        return LintConfig()
    return LintConfig.from_pyproject(pyproject)


def module_name_for_path(path: Path) -> str:
    """Dotted module name of ``path``, walking up through ``__init__.py`` packages.

    >>> module_name_for_path(Path("src/repro/scheduler/engine.py"))
    'repro.scheduler.engine'
    """
    parts: list[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        directory = directory.parent
    return ".".join(reversed(parts)) or path.stem


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule codes allowed on that line."""
    allowed: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            codes = {code.strip() for code in match.group(1).split(",")}
            allowed.setdefault(lineno, set()).update(codes)
    return allowed


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: str
    module: str
    source: str
    tree: ast.Module
    config: LintConfig
    #: Imported-name aliases (``np`` -> ``numpy``, ``time`` -> ``time.time``).
    aliases: dict[str, str] = field(default_factory=dict)

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
            module=self.module,
        )

    def in_modules(self, prefixes: Sequence[str]) -> bool:
        return self.config.applies(self.module, prefixes)


class Rule:
    """Base class for one D0xx determinism rule.

    Subclasses set the class attributes and implement :meth:`check`.  The
    ``bad`` / ``good`` snippets double as documentation (``--explain``) and
    as test fixtures: linting ``bad`` in ``example_module`` must yield the
    rule's code, linting ``good`` must not.
    """

    code: str = "D000"
    title: str = ""
    rationale: str = ""
    #: Module name under which the example snippets are linted.
    example_module: str = "repro.example"
    bad: str = ""
    good: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def explain(cls) -> str:
        lines = [f"{cls.code}: {cls.title}", "", cls.rationale.strip(), ""]
        if cls.bad:
            lines += ["Bad:", *("    " + ln for ln in cls.bad.strip().splitlines()), ""]
        if cls.good:
            lines += ["Good:", *("    " + ln for ln in cls.good.strip().splitlines()), ""]
        lines.append(f"Suppress with: # repro: allow[{cls.code}]")
        return "\n".join(lines)


@dataclass(frozen=True)
class LintResult:
    """Outcome of linting a set of files."""

    findings: tuple[Finding, ...]
    #: Violations silenced by an inline ``# repro: allow[...]`` comment; kept
    #: so tooling can audit where the contracts are being waived.
    suppressed: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "counts": dict(sorted(counts.items())),
        }


def _build_alias_map(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never shadow the stdlib modules
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def lint_source(
    source: str,
    module: str,
    config: LintConfig | None = None,
    path: str = "<memory>",
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Lint one module given as a string (the test / fixture entry point)."""
    from repro.devtools.rules import default_rules

    config = config or LintConfig()
    active = list(rules) if rules is not None else default_rules()
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(
        path=path,
        module=module,
        source=source,
        tree=tree,
        config=config,
        aliases=_build_alias_map(tree),
    )
    suppressions = parse_suppressions(source)
    ignored = config.ignored_codes_for(path)

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in active:
        if rule.code in ignored:
            continue
        for finding in rule.check(ctx):
            if finding.code in suppressions.get(finding.line, set()):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return LintResult(findings=tuple(sorted(findings)), suppressed=tuple(sorted(suppressed)))


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in deterministic sorted order."""
    seen: set[Path] = set()
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(
    paths: Sequence[Path],
    config: LintConfig | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Lint every Python file under ``paths`` and merge the results."""
    config = config or LintConfig()
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for path in iter_python_files(paths):
        posix = path.as_posix()
        if any(fnmatch.fnmatch(posix, pattern) for pattern in config.exclude):
            continue
        source = path.read_text(encoding="utf-8")
        module = module_name_for_path(path)
        result = lint_source(source, module=module, config=config, path=posix, rules=rules)
        findings.extend(result.findings)
        suppressed.extend(result.suppressed)
    return LintResult(findings=tuple(sorted(findings)), suppressed=tuple(sorted(suppressed)))


__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "Rule",
    "find_pyproject",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "load_config",
    "module_name_for_path",
    "parse_suppressions",
]

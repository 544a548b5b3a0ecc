"""Configuration: defaults plus the ``[tool.reprolint]`` pyproject table.

All options have safe defaults so the linter runs with no config file
at all; ``pyproject.toml`` (parsed with stdlib ``tomllib``) can narrow
or widen the rule set per project. Keys accept both ``dash-case`` and
``snake_case`` spellings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .findings import Severity

try:  # Python >= 3.11; gated so 3.10 still imports (config just stays default)
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    tomllib = None  # type: ignore[assignment]

__all__ = ["LintConfig", "DEFAULT_CONFIG", "load_config", "find_pyproject"]

#: Directory names never descended into when collecting files.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".venv", "venv", "build", "dist", ".eggs"}
)


@dataclass(frozen=True)
class LintConfig:
    """Immutable, resolved linter configuration.

    Attributes
    ----------
    select:
        If non-empty, only these rule codes run.
    ignore:
        Rule codes disabled entirely.
    exclude:
        Path fragments; files whose path contains one are skipped.
    rng_allow:
        Path fragments where DET001 permits unseeded generators (RNG
        plumbing that deliberately draws OS entropy).
    path_scopes:
        Per-rule path scopes from ``[tool.reprolint.paths]``
        (``CODE = ["fragment", ...]``). Rules resolve their scope
        through :meth:`paths_for`, falling back to their own default,
        so no rule needs a bespoke config field.
    justify:
        Rule codes whose suppression pragmas must carry a
        ``-- justification`` suffix to take effect (``"all"`` applies
        to every code).
    severity:
        Per-code severity overrides.
    """

    select: FrozenSet[str] = frozenset()
    ignore: FrozenSet[str] = frozenset()
    exclude: Tuple[str, ...] = ()
    rng_allow: Tuple[str, ...] = ()
    path_scopes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    justify: FrozenSet[str] = frozenset()
    severity: Dict[str, Severity] = field(default_factory=dict)

    def paths_for(
        self, code: str, default: Tuple[str, ...] = ()
    ) -> Tuple[str, ...]:
        """Resolve the path scope for ``code``.

        An explicit ``[tool.reprolint.paths]`` entry wins; otherwise the
        rule's own ``default`` applies.
        """
        return self.path_scopes.get(code, default)

    def requires_justification(self, code: str) -> bool:
        """Whether suppressing ``code`` demands a written reason."""
        return "all" in self.justify or code in self.justify

    def rule_enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        if self.select:
            return code in self.select
        return True

    def severity_for(self, code: str, default: Severity) -> Severity:
        return self.severity.get(code, default)

    def path_excluded(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        if any(part in _SKIP_DIRS for part in norm.split("/")):
            return True
        return any(fragment in norm for fragment in self.exclude)

    def digest(self) -> str:
        """Stable hash of the resolved configuration.

        The lint result cache keys on this so editing
        ``[tool.reprolint]`` invalidates cached findings.
        """
        import hashlib

        canonical = repr(
            (
                sorted(self.select),
                sorted(self.ignore),
                self.exclude,
                self.rng_allow,
                sorted(
                    (code, scope) for code, scope in self.path_scopes.items()
                ),
                sorted(self.justify),
                sorted(
                    (code, sev.value) for code, sev in self.severity.items()
                ),
            )
        )
        return hashlib.blake2b(
            canonical.encode("utf-8"), digest_size=16
        ).hexdigest()


DEFAULT_CONFIG = LintConfig()


def find_pyproject(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start`` (default: cwd)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _get(table: Mapping[str, object], key: str) -> object:
    """Fetch ``key`` accepting dash-case and snake_case spellings."""
    if key in table:
        return table[key]
    return table.get(key.replace("-", "_"))


def _str_tuple(value: object, key: str) -> Tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    if isinstance(value, Sequence) and all(
        isinstance(item, str) for item in value
    ):
        return tuple(value)
    raise ValueError(f"[tool.reprolint] {key} must be a list of strings")


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Resolve configuration from ``pyproject`` (auto-discovered if None).

    Missing file, missing table, or a Python without ``tomllib`` all
    yield :data:`DEFAULT_CONFIG` — the linter never hard-requires
    configuration.
    """
    if tomllib is None:
        return DEFAULT_CONFIG
    path = pyproject if pyproject is not None else find_pyproject()
    if path is None or not Path(path).is_file():
        return DEFAULT_CONFIG
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("reprolint")
    if not isinstance(table, Mapping):
        return DEFAULT_CONFIG

    config = DEFAULT_CONFIG
    select = _get(table, "select")
    if select is not None:
        config = replace(config, select=frozenset(_str_tuple(select, "select")))
    ignore = _get(table, "ignore")
    if ignore is not None:
        config = replace(config, ignore=frozenset(_str_tuple(ignore, "ignore")))
    exclude = _get(table, "exclude")
    if exclude is not None:
        config = replace(config, exclude=_str_tuple(exclude, "exclude"))
    rng_allow = _get(table, "rng-allow")
    if rng_allow is not None:
        config = replace(config, rng_allow=_str_tuple(rng_allow, "rng-allow"))
    paths = _get(table, "paths")
    if paths is not None:
        if not isinstance(paths, Mapping):
            raise ValueError(
                "[tool.reprolint.paths] must map rule codes to lists "
                "of path fragments"
            )
        config = replace(
            config,
            path_scopes={
                str(code): _str_tuple(value, f"paths.{code}")
                for code, value in paths.items()
            },
        )
    justify = _get(table, "require-justification")
    if justify is not None:
        if justify is True:
            config = replace(config, justify=frozenset({"all"}))
        elif justify is False:
            config = replace(config, justify=frozenset())
        else:
            config = replace(
                config,
                justify=frozenset(
                    _str_tuple(justify, "require-justification")
                ),
            )
    severity = _get(table, "severity")
    if severity is not None:
        if not isinstance(severity, Mapping):
            raise ValueError(
                "[tool.reprolint.severity] must map rule codes to "
                "error/warning/info"
            )
        config = replace(
            config,
            severity={
                str(code): Severity.parse(str(level))
                for code, level in severity.items()
            },
        )
    return config

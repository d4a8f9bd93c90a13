"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a grid of compression runs: a list of
test-set *sources* (calibrated benchmark profiles or cube files) crossed
with named *axes*, each axis sweeping one :class:`~repro.config.CompressionConfig`
field.  The cartesian expansion is deterministic -- sources in declaration
order, axis values in declaration order -- so job lists (and therefore
result stores) are stable across runs and machines.

Specs can be built in Python or loaded from a TOML/JSON file::

    name = "fig4-bars"

    [[sources]]
    profile = "s13207"
    scale = 0.2

    [base]
    window_length = 300

    [axes]
    speedup = [3, 6, 12, 24]
    segment_size = [4, 10, 12, 20]

An optional ``filter`` expression prunes combinations; it is evaluated
with the resolved config fields plus ``circuit`` in scope, e.g.
``filter = "segment_size <= window_length"``.
"""

from __future__ import annotations

import ast
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import CompressionConfig
from repro.testdata.profiles import get_profile
from repro.testdata.synthetic import generate_test_set
from repro.testdata.test_set import TestSet

_CONFIG_FIELDS = {f.name for f in fields(CompressionConfig)}

#: AST nodes a filter expression may use: comparisons, boolean logic and
#: arithmetic over config fields and literals -- no calls, attributes,
#: subscripts or comprehensions, so spec files cannot execute code.
_FILTER_NODES = (
    ast.Expression,
    ast.BoolOp, ast.And, ast.Or,
    ast.UnaryOp, ast.Not, ast.USub, ast.UAdd,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.In, ast.NotIn, ast.Is, ast.IsNot,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
    ast.Mod, ast.Pow,
    ast.Name, ast.Load, ast.Constant, ast.Tuple, ast.List,
)


def evaluate_filter(expression: str, scope: Mapping[str, object]) -> bool:
    """Safely evaluate a spec filter expression over config-field values.

    Only comparison/boolean/arithmetic syntax is allowed; anything else
    (calls, attribute access, subscripts) raises :class:`ValueError`, as
    does a reference to an unknown name.
    """
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as error:
        raise ValueError(f"invalid filter expression {expression!r}: {error}")
    for node in ast.walk(tree):
        if not isinstance(node, _FILTER_NODES):
            raise ValueError(
                f"filter expression {expression!r} uses disallowed syntax "
                f"({type(node).__name__}); only comparisons, boolean logic "
                f"and arithmetic over config fields are supported"
            )
    try:
        return bool(
            eval(compile(tree, "<filter>", "eval"), {"__builtins__": {}}, dict(scope))
        )
    except NameError as error:
        raise ValueError(
            f"filter expression {expression!r} references an unknown name: "
            f"{error}"
        ) from None


@dataclass(frozen=True)
class TestSource:
    """One test-set source of a campaign.

    Exactly one of ``profile`` (calibrated benchmark profile name) and
    ``tests`` (path to a 0/1/X cube file) must be set.  ``scale`` and
    ``seed`` parameterise the synthetic generator for profile sources.
    """

    #: Tell pytest this domain class is not a test-case class.
    __test__ = False

    profile: Optional[str] = None
    tests: Optional[str] = None
    scale: Optional[float] = None
    seed: int = 1

    def __post_init__(self):
        if (self.profile is None) == (self.tests is None):
            raise ValueError("a source needs exactly one of 'profile' or 'tests'")
        if self.profile is not None:
            get_profile(self.profile)  # fail fast on unknown names

    @property
    def label(self) -> str:
        """Short human-readable identity used in job ids."""
        if self.profile is not None:
            label = self.profile
            if self.scale is not None:
                label += f"@{self.scale:g}"
            if self.seed != 1:
                label += f"#{self.seed}"
            return label
        return Path(self.tests).stem

    def resolve(self) -> Tuple[TestSet, Optional[int]]:
        """Materialise the test set and its default LFSR size."""
        if self.profile is not None:
            profile = get_profile(self.profile)
            test_set = generate_test_set(profile, seed=self.seed, scale=self.scale)
            return test_set, profile.lfsr_size
        path = Path(self.tests)
        return TestSet.from_text(path.read_text(), name=path.stem), None


@dataclass(frozen=True)
class JobSpec:
    """One fully resolved point of a campaign grid."""

    job_id: str
    source: TestSource
    config: CompressionConfig
    axes: Mapping[str, object]


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid of compression runs.

    Attributes
    ----------
    name:
        Campaign name (also the default store subdirectory name).
    sources:
        Test-set sources; each is crossed with the full axis grid.
    base:
        Config defaults shared by every job; axis values override them.
    axes:
        Ordered mapping ``config field -> list of values``.  Every key
        must name a :class:`CompressionConfig` field.
    filter:
        Optional Python expression over the resolved config fields (plus
        ``circuit``); combinations where it evaluates falsy are dropped.
    verify:
        Whether jobs re-expand seeds and verify every embedding.
    """

    name: str
    sources: Tuple[TestSource, ...]
    base: CompressionConfig = field(default_factory=CompressionConfig)
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    filter: Optional[str] = None
    verify: bool = True

    def __post_init__(self):
        if not self.sources:
            raise ValueError("a campaign needs at least one source")
        unknown = set(self.axes) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(
                f"unknown config axes {sorted(unknown)}; "
                f"valid fields: {sorted(_CONFIG_FIELDS)}"
            )
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {axis!r} has no values")

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    def jobs(self) -> List[JobSpec]:
        """Deterministic cartesian expansion of the grid.

        Sources vary slowest, then axes in declaration order (last axis
        fastest) -- the natural reading order of the spec file.
        """
        axis_names = list(self.axes)
        combos = itertools.product(*(self.axes[name] for name in axis_names))
        jobs: List[JobSpec] = []
        for source, combo in itertools.product(self.sources, list(combos)):
            overrides = dict(zip(axis_names, combo))
            if not self._passes_filter(source, overrides):
                continue
            config = self.base.with_updates(**overrides)
            suffix = ",".join(f"{name}={value}" for name, value in overrides.items())
            job_id = f"{source.label}:{suffix}" if suffix else source.label
            jobs.append(
                JobSpec(job_id=job_id, source=source, config=config, axes=overrides)
            )
        if not jobs:
            raise ValueError(f"campaign {self.name!r} expands to zero jobs")
        return jobs

    def _passes_filter(self, source: TestSource, overrides: Dict[str, object]) -> bool:
        if self.filter is None:
            return True
        scope = self.base.to_dict()
        scope.update(overrides)
        scope["circuit"] = source.label
        return evaluate_filter(self.filter, scope)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        sources = tuple(
            TestSource(**entry) for entry in data.get("sources", ())
        )
        base_data = dict(data.get("base", {}))
        unknown = set(base_data) - _CONFIG_FIELDS
        if unknown:
            # CompressionConfig.from_dict tolerates unknown keys for loading
            # old store records, but a spec typo must not silently run the
            # wrong experiment.
            raise ValueError(
                f"unknown [base] config keys {sorted(unknown)}; "
                f"valid fields: {sorted(_CONFIG_FIELDS)}"
            )
        base = CompressionConfig.from_dict(base_data)
        return cls(
            name=data.get("name", "campaign"),
            sources=sources,
            base=base,
            axes=dict(data.get("axes", {})),
            filter=data.get("filter"),
            verify=bool(data.get("verify", True)),
        )

    @classmethod
    def from_file(cls, path: "str | Path") -> "CampaignSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:  # Python < 3.11 without tomllib
                try:
                    import tomli as tomllib
                except ImportError:
                    raise RuntimeError(
                        "TOML specs need Python >= 3.11 (tomllib) or the "
                        "'tomli' package; use a .json spec instead"
                    ) from None
            data = tomllib.loads(path.read_text())
        elif path.suffix.lower() == ".json":
            data = json.loads(path.read_text())
        else:
            raise ValueError(
                f"unsupported spec format {path.suffix!r} (use .toml or .json)"
            )
        return cls.from_dict(data)

"""Determinism zones: which invariants apply to which modules.

The source linter does not apply every rule everywhere -- ``time.time()``
is fine in the sweep coordinator's wall-clock accounting and fatal inside
cache-key derivation.  A :class:`ZoneManifest` is the declarative map
from module patterns (``fnmatch`` globs over dotted module names) to zone
tags; each rule declares the zones it polices via
:attr:`~repro.analyze.source.rules.SourceRule.zones`.

Zone tags:

* ``id``        -- hash / cache-key / span-id / seed material: anything
                   folded into a content-addressed identity.  Wall clock,
                   pids and unseeded randomness are forbidden (DET101);
                   unordered iteration is forbidden (DET103).
* ``serialize`` -- manifest / report / bench writers: ``json.dump(s)``
                   must pass ``sort_keys=True`` (DET102); unordered
                   iteration is forbidden (DET103).
* ``report``    -- human- or CI-facing tables and reductions: unordered
                   iteration is forbidden (DET103).
* ``retry``     -- executor retry/backoff paths: overbroad ``except``
                   that would swallow ``BrokenExecutor`` is forbidden
                   (EXC101).
* ``dispatch``  -- modules that submit work to process pools (currently
                   informational; PKL101/MUT101 apply everywhere).

:data:`DEFAULT_MANIFEST` is the checked-in zoning of ``src/repro``
itself -- the contract the tier-1 self-lint test certifies.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

KNOWN_ZONES: FrozenSet[str] = frozenset(
    {"id", "serialize", "report", "retry", "dispatch"}
)

ZoneAssignment = Tuple[str, FrozenSet[str]]


class ZoneManifest:
    """Ordered (pattern -> zone set) assignments; matches accumulate."""

    def __init__(
        self, assignments: Sequence[Tuple[str, Iterable[str]]]
    ) -> None:
        self.assignments: List[ZoneAssignment] = []
        for pattern, zones in assignments:
            zone_set = frozenset(zones)
            unknown = zone_set - KNOWN_ZONES
            if unknown:
                raise ValueError(
                    f"unknown zone(s) {sorted(unknown)} for pattern "
                    f"{pattern!r}; known: {sorted(KNOWN_ZONES)}"
                )
            self.assignments.append((pattern, zone_set))

    def zones_of(self, module: str) -> FrozenSet[str]:
        """Union of every matching pattern's zones for one module."""
        zones: Set[str] = set()
        for pattern, zone_set in self.assignments:
            if fnmatchcase(module, pattern):
                zones |= zone_set
        return frozenset(zones)

    def to_dict(self) -> Dict[str, List[str]]:
        """JSON-ready (pattern -> sorted zones) mapping for reports."""
        merged: Dict[str, Set[str]] = {}
        for pattern, zone_set in self.assignments:
            merged.setdefault(pattern, set()).update(zone_set)
        return {
            pattern: sorted(zones) for pattern, zones in sorted(merged.items())
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Iterable[str]]) -> "ZoneManifest":
        return cls(sorted((str(k), tuple(v)) for k, v in data.items()))

    def __repr__(self) -> str:
        return f"ZoneManifest({len(self.assignments)} assignment(s))"


DEFAULT_MANIFEST = ZoneManifest([
    # Content-addressed identity material: cache keys, derived seeds,
    # span ids, config hashes, fault-plan hashes, reuse-distance math.
    ("repro.exec.cells", ("id",)),
    ("repro.exec.cache", ("id",)),
    ("repro.obs.tracing", ("id",)),
    ("repro.obs.manifest", ("id", "serialize")),
    ("repro.faults.plan", ("id",)),
    ("repro.ir", ("id",)),
    ("repro.ir.*", ("id",)),
    ("repro.cme", ("id",)),
    ("repro.cme.*", ("id",)),
    # Serialized artifacts CI diffs and hashes: sorted keys or bust.
    ("repro.obs.bench", ("serialize",)),
    ("repro.obs.events", ("serialize",)),
    ("repro.cli", ("serialize",)),
    # Rendered tables and cross-run reductions.
    ("repro.obs.metrics", ("report",)),
    ("repro.experiments.report", ("serialize", "report")),
    ("repro.experiments.figures", ("report",)),
    ("repro.experiments.harness", ("report",)),
    # The process-pool executor: retry/backoff exception hygiene.
    ("repro.exec.executor", ("retry", "dispatch")),
    # The compile-side cache: artifact keys are identity material.
    ("repro.compile.keys", ("id",)),
    ("repro.compile.cache", ("id",)),
    # The fuzzer: case ids/seeds are identity material; reports, the
    # corpus and spec JSON are diffed byte-for-byte across runs.
    ("repro.fuzz.spec", ("id", "serialize")),
    ("repro.fuzz.generator", ("id",)),
    ("repro.fuzz.corpus", ("serialize",)),
    ("repro.fuzz.runner", ("serialize",)),
])
"""The checked-in zoning of ``src/repro`` (see module docstring)."""

"""In-process memoization of compile-side artifacts (see :mod:`.cache`)."""

from .cache import (
    DEFAULT_MEMORY_ENTRIES,
    CompileCache,
    counter_delta,
    counter_totals,
    get_compile_cache,
    reset_compile_cache,
)
from .keys import (
    affinity_material,
    distribution_material,
    estimates_material,
    instance_digest,
    material_digest,
    partition_material,
    tables_material,
)

__all__ = [
    "DEFAULT_MEMORY_ENTRIES",
    "CompileCache",
    "affinity_material",
    "counter_delta",
    "counter_totals",
    "distribution_material",
    "estimates_material",
    "get_compile_cache",
    "instance_digest",
    "material_digest",
    "partition_material",
    "reset_compile_cache",
    "tables_material",
]

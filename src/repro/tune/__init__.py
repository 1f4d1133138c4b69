"""OSKI-style kernel autotuning with a persistent execution-plan cache.

The paper's amortisation argument (Fig. 11) is that FBMPK's
preprocessing pays for itself over a *sequence* of SpMVs.  This package
pushes that one step further, in the OSKI tradition: pick the fastest
execution plan *empirically* on the actual matrix, require the winner to
be bit-identical to the default path, and persist the decision — keyed
by matrix structure and platform — so later processes skip both the
search and the recomputable preprocessing.

Layers (each its own module):

* :mod:`~repro.tune.plan` — :class:`ExecutionPlan`, the serialisable
  description of one execution choice (schema-versioned).
* :mod:`~repro.tune.fingerprint` — :class:`StructureFingerprint`, the
  cache key: shape, nnz, a hash of the index arrays, dtype, platform.
* :mod:`~repro.tune.registry` — candidate enumeration and the only
  plan → runnable-object translation.
* :mod:`~repro.tune.cache` — :class:`PlanCache`, the corrupt-tolerant
  persistent store under ``~/.cache/repro/plans`` (or
  ``$REPRO_PLAN_CACHE_DIR``).
* :mod:`~repro.tune.autotuner` — the measurement loop:
  :func:`autotune_power`, :func:`autotune_spmv`, :func:`tuned_matvec`.

Entry points elsewhere: ``repro tune`` on the CLI, ``--tuned`` on
``repro power``/``repro solve``, and ``tuned=True`` on the solvers.
"""

from .autotuner import (
    SEARCH_BREAKER,
    Trial,
    TuningResult,
    autotune_power,
    autotune_spmv,
    trimmed_mean,
    tuned_matvec,
)
from .cache import (
    CACHE_DIR_ENV_VAR,
    CACHE_SCHEMA_VERSION,
    CacheEntry,
    PlanCache,
    default_cache_dir,
)
from .fingerprint import StructureFingerprint, fingerprint_matrix
from .plan import (
    PLAN_KINDS,
    PLAN_SCHEMA_VERSION,
    ExecutionPlan,
    PlanFormatError,
    default_power_plan,
    default_spmv_plan,
)
from .registry import (
    instantiate_power,
    instantiate_spmv,
    plan_is_bit_identical_by_design,
    power_candidates,
    spmv_candidates,
)

__all__ = [
    "SEARCH_BREAKER",
    "Trial",
    "TuningResult",
    "autotune_power",
    "autotune_spmv",
    "trimmed_mean",
    "tuned_matvec",
    "CACHE_DIR_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "CacheEntry",
    "PlanCache",
    "default_cache_dir",
    "StructureFingerprint",
    "fingerprint_matrix",
    "PLAN_KINDS",
    "PLAN_SCHEMA_VERSION",
    "ExecutionPlan",
    "PlanFormatError",
    "default_power_plan",
    "default_spmv_plan",
    "instantiate_power",
    "instantiate_spmv",
    "plan_is_bit_identical_by_design",
    "power_candidates",
    "spmv_candidates",
]

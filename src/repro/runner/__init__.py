"""Experiment orchestration: declarative grids, caching, parallel fan-out.

The layer behind every sweep, figure and benchmark of the evaluation::

    from repro.runner import ExperimentMatrix, ParallelRunner, ResultCache
    from repro.sim.engine import ThermalMode

    matrix = ExperimentMatrix(
        workloads=("dijkstra", "patricia"),
        modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.DTPM),
    )
    runner = ParallelRunner(workers=4, cache=ResultCache.from_env())
    results = runner.run(matrix)          # re-running is near-free
"""

from repro.runner.cache import (
    ARTIFACT_FORMAT,
    CACHE_DIR_ENV,
    CacheStats,
    DiskUsage,
    MigrateStats,
    ResultCache,
    TRACE_BLOB_SUFFIX,
    default_cache_dir,
    disk_usage,
    load_trace_blob,
    migrate,
    payload_bytes,
    prune,
    result_bytes,
    result_to_payload,
    result_to_summary,
    store_depth,
    summary_to_result,
    trace_blob_bytes,
)
from repro.runner.execute import (
    BATCH_ENV,
    DEFAULT_BATCH,
    build_simulator,
    default_batch,
    execute_batch,
    execute_schedule,
    execute_schedules,
    execute_spec,
    make_dtpm_governor,
    plan_batches,
    plant_shape_key,
)
from repro.runner.model_store import (
    MODELS_FORMAT,
    cached_build_models,
    models_key,
    models_to_payload,
    payload_to_models,
)
from repro.runner.runner import (
    ParallelRunner,
    RunnerStats,
    default_workers,
    ensure_runner,
)
from repro.runner.spec import (
    CACHE_FORMAT,
    ExperimentMatrix,
    RunSpec,
    canonical_json,
    model_fingerprint,
    spec_key,
)
from repro.runner.wire import (
    WIRE_SCHEMA,
    matrix_from_wire,
    matrix_to_wire,
    spec_from_wire,
    spec_to_wire,
    workload_from_wire,
    workload_to_wire,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "BATCH_ENV",
    "CACHE_DIR_ENV",
    "CACHE_FORMAT",
    "DEFAULT_BATCH",
    "MODELS_FORMAT",
    "WIRE_SCHEMA",
    "CacheStats",
    "DiskUsage",
    "MigrateStats",
    "TRACE_BLOB_SUFFIX",
    "build_simulator",
    "default_batch",
    "disk_usage",
    "migrate",
    "store_depth",
    "execute_batch",
    "execute_schedule",
    "execute_schedules",
    "plan_batches",
    "plant_shape_key",
    "load_trace_blob",
    "prune",
    "result_to_summary",
    "summary_to_result",
    "trace_blob_bytes",
    "cached_build_models",
    "models_key",
    "models_to_payload",
    "payload_to_models",
    "ExperimentMatrix",
    "ParallelRunner",
    "ResultCache",
    "RunSpec",
    "RunnerStats",
    "canonical_json",
    "default_cache_dir",
    "default_workers",
    "ensure_runner",
    "execute_spec",
    "make_dtpm_governor",
    "matrix_from_wire",
    "matrix_to_wire",
    "model_fingerprint",
    "payload_bytes",
    "result_bytes",
    "result_to_payload",
    "spec_from_wire",
    "spec_to_wire",
    "spec_key",
    "workload_from_wire",
    "workload_to_wire",
]

"""Canonical keys and code fingerprints for journal/cache addressing.

A measurement is identified by its *semantic* inputs — kind, parameters,
seed, replicate index — plus a fingerprint of the source modules whose
behaviour determines the result. Keying on the fingerprint means a stale
journal or cache written by different code simply stops matching: entries
are never wrong, only cold.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any

__all__ = [
    "canonical_json",
    "point_key",
    "task_digest",
    "experiment_digest",
    "discovery_digest",
    "measurement_fingerprint",
    "package_fingerprint",
]

#: Modules whose source determines the outcome of a single measurement task.
MEASUREMENT_MODULES = (
    "repro.rng",
    "repro.engine.driver",
    "repro.engine.metrics",
    "repro.engine.stability",
    "repro.core.capped",
    "repro.core.meanfield",
    "repro.processes.greedy",
    "repro.analysis.sweep",
)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def point_key(kind: str, params: dict[str, Any]) -> str:
    """In-run identity of one parameter point (no code fingerprint)."""
    return canonical_json({"kind": kind, "params": params})


def _digest(payload: dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def _hash_files(paths: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.encode("utf-8"))
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()[:16]


def measurement_fingerprint() -> str:
    """Fingerprint of the modules a measurement task depends on."""
    paths = tuple(str(Path(importlib.import_module(name).__file__)) for name in MEASUREMENT_MODULES)
    return _hash_files(paths)


def package_fingerprint() -> str:
    """Fingerprint of the whole ``repro`` package source.

    Experiment generators may touch any module (coupled runs, ablation
    processes, workload models), so whole-experiment cache entries key on
    everything.
    """
    import repro

    root = Path(repro.__file__).parent
    paths = tuple(sorted(str(p) for p in root.rglob("*.py")))
    return _hash_files(paths)


def task_digest(kind: str, params: dict[str, Any], replicate: int) -> str:
    """Content address of one replicate measurement."""
    return _digest(
        {
            "kind": kind,
            "params": params,
            "replicate": replicate,
            "code": measurement_fingerprint(),
        }
    )


def experiment_digest(experiment_id: str, profile: dict[str, Any]) -> str:
    """Content address of one whole experiment under a profile."""
    return _digest(
        {
            "experiment": experiment_id,
            "profile": profile,
            "code": package_fingerprint(),
        }
    )


def discovery_digest(experiment_id: str, profile: dict[str, Any]) -> str:
    """Content address of one experiment's discovery run (its plan).

    Distinct from :func:`experiment_digest`, which keys the finished
    result, so a discovery bundle never collides with a cache entry.
    """
    return _digest({"discover": experiment_digest(experiment_id, profile)})

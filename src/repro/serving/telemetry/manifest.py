"""Run manifests: a deterministic config-and-workload snapshot embedded
in every report.

The first concrete step toward ``repro reproduce``: every
``ServingReport``/``ClusterReport`` JSON carries enough to re-run the
exact experiment — package version, the resolved config (kernel, router,
scheduler, KV, autoscaler, disaggregation, preemption), and a SHA-256
fingerprint of the workload trace (request ids, arrival times, token
lengths).  Two reports with equal manifests ran the same experiment.

Determinism is load-bearing: the CLI's seed-determinism tests compare
report JSON byte-for-byte across runs, so the manifest carries **no
wall-clock data** — timestamps belong in benchmark artifacts
(``benchmarks/serving_artifact.py``), not here.  Policy objects are
snapshotted by their ``name`` (never ``repr``, which embeds addresses).
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.serving.request import ServingRequest


def config_snapshot(obj):
    """A JSON-safe, deterministic snapshot of a config value.

    Dataclasses recurse field-by-field; enums take their value; policy
    objects collapse to their ``name`` (or class name); primitives pass
    through."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: config_snapshot(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, Enum):
        return config_snapshot(obj.value)
    if isinstance(obj, (list, tuple)):
        return [config_snapshot(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): config_snapshot(value)
                for key, value in sorted(obj.items(), key=lambda kv:
                                         str(kv[0]))}
    name = getattr(obj, "name", None)
    if isinstance(name, str):
        return name
    return obj.__class__.__name__


def workload_fingerprint(requests: Sequence[ServingRequest]) -> str:
    """SHA-256 over the trace's (id, arrival, input, output) rows —
    16 hex chars, enough to tell two workloads apart at a glance."""
    # One joined buffer, one hash call: the same bytes, in the same
    # order, as feeding the rows one ``update`` at a time.
    rows = "".join([f"{request.request_id},{request.arrival_s!r},"
                    f"{request.workload.input_len},"
                    f"{request.workload.output_len};"
                    for request in requests])
    return hashlib.sha256(rows.encode()).hexdigest()[:16]


def build_manifest(*, component: str, model: str,
                   requests: Sequence[ServingRequest],
                   configs: Optional[dict] = None,
                   extra: Optional[dict] = None) -> dict:
    """The manifest dict embedded in a report.

    ``configs`` maps section name -> config object (snapshotted);
    ``extra`` carries caller context (CLI seeds, trace shape) verbatim.
    """
    from repro import __version__

    manifest = {
        "repro_version": __version__,
        "component": component,
        "model": model,
        "workload": {
            "num_requests": len(requests),
            "fingerprint": workload_fingerprint(requests),
        },
    }
    for name, value in sorted((configs or {}).items()):
        manifest[name] = config_snapshot(value)
    if extra:
        manifest.update(config_snapshot(extra))
    return manifest

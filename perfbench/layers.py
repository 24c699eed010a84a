"""Which public functions the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Each target's metric
prefix is ``<layer>.<function>``; every target yields ``.calls``,
``.busy_s`` and ``.self_s``.  ``README.md`` maps each of them to the
end-to-end metric it should move and the workload it moves it on.
"""

from __future__ import annotations

from typing import Dict, List

from .spans import Target

__all__ = ["TARGETS", "PER_LAYER", "per_layer_metrics"]


def _add(counters: Dict[str, float], key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _put_bytes(counters, args, kwargs, result):
    _add(counters, "storage.ObjectStore.put.bytes",
         len(_arg(args, kwargs, 2, "blob")))


def _get_bytes(counters, args, kwargs, result):
    _add(counters, "storage.ObjectStore.get.bytes", len(result))


def _deflate_bytes(counters, args, kwargs, result):
    _add(counters, "storage.deflate.bytes_in",
         len(_arg(args, kwargs, 0, "data")))
    _add(counters, "storage.deflate.bytes_out", len(result))


def _delta_bytes(counters, args, kwargs, result):
    from repro.core.checknrun import state_dict_bytes

    _add(counters, "core.checknrun.delta_bytes", len(result))
    _add(counters, "core.checknrun.full_bytes",
         state_dict_bytes(_arg(args, kwargs, 1, "new")))


def _send_bytes(counters, args, kwargs, result):
    num_bytes = _arg(args, kwargs, 3, "num_bytes")
    kind = _arg(args, kwargs, 4, "kind")
    _add(counters, f"core.fabric.send.{kind}.calls", 1)
    _add(counters, f"core.fabric.send.{kind}.bytes", num_bytes)
    _add(counters, "core.fabric.send.bytes", num_bytes)


def _dispatch_batch(counters, args, kwargs, result):
    _add(counters, "serving.ReplicaDispatcher.dispatch.requests",
         len(_arg(args, kwargs, 1, "batch")))


TARGETS: List[Target] = [
    # models: the split DNN's three entry points
    Target("models", "repro.models.split", "SplitModel.forward"),
    Target("models", "repro.models.split", "SplitModel.forward_until"),
    Target("models", "repro.models.split", "SplitModel.forward_from"),
    # nn: ROADMAP item 2's hotspots, plus the Tuner's training step
    Target("nn", "repro.nn.functional", "conv2d"),
    Target("nn", "repro.nn.layers", "BatchNorm2d.forward"),
    Target("nn", "repro.nn.tensor", "Tensor.backward"),
    Target("nn", "repro.nn.optim", "Adam.step"),
    # storage: codecs and the object store
    Target("storage", "repro.storage.compression", "deflate",
           measure=_deflate_bytes),
    Target("storage", "repro.storage.compression", "inflate"),
    Target("storage", "repro.storage.imageformat", "encode_photo"),
    Target("storage", "repro.storage.imageformat",
           "decode_preprocessed_into"),
    Target("storage", "repro.storage.objectstore", "ObjectStore.put",
           measure=_put_bytes),
    Target("storage", "repro.storage.objectstore", "ObjectStore.get",
           measure=_get_bytes),
    Target("storage.photodb", "repro.storage.photodb", "PhotoDatabase.upsert",
           label="upsert"),
    # core: ingest data plane, control plane, PipeStore, Tuner, Check-N-Run
    Target("core.dataplane", "repro.core.dataplane",
           "IngestDataPlane.land_upload", label="land_upload"),
    Target("core.dataplane", "repro.core.dataplane",
           "IngestDataPlane.place_photo", label="place_photo"),
    Target("core.dataplane", "repro.core.dataplane",
           "IngestDataPlane.place_replicas", label="place_replicas"),
    Target("core.controlplane", "repro.core.controlplane",
           "RecoveryControlPlane.journal_put", label="journal_put"),
    Target("core.pipestore", "repro.core.pipestore", "PipeStore.store_photo",
           label="store_photo"),
    Target("core.pipestore", "repro.core.pipestore",
           "PipeStore.extract_features", label="extract_features"),
    Target("core.pipestore", "repro.core.pipestore",
           "PipeStore.offline_infer", label="offline_infer"),
    Target("core.pipestore", "repro.core.pipestore",
           "PipeStore.apply_model_delta", label="apply_model_delta"),
    Target("core.tuner", "repro.core.tuner", "Tuner.finetune",
           label="finetune"),
    Target("core.tuner", "repro.core.tuner", "Tuner.distribute_update",
           label="distribute_update"),
    Target("core.tuner", "repro.core.tuner",
           "Tuner.trigger_offline_inference",
           label="trigger_offline_inference"),
    Target("core.checknrun", "repro.core.checknrun", "encode_delta",
           measure=_delta_bytes),
    Target("core.checknrun", "repro.core.checknrun", "apply_delta"),
    Target("core.fabric", "repro.core.fabric", "NetworkFabric.send",
           label="send", measure=_send_bytes),
    # inference: the online front end (InferenceServer) and preprocessing
    Target("inference", "repro.core.dataplane",
           "InferenceServer.classify_preprocessed"),
    Target("inference", "repro.storage.imageformat", "preprocess"),
    # serving: cache, dispatcher, autoscaler and the event loop
    Target("serving", "repro.serving.cache", "TensorCache.lookup"),
    Target("serving", "repro.serving.cache", "TensorCache.insert"),
    Target("serving", "repro.serving.dispatcher", "ReplicaDispatcher.dispatch",
           measure=_dispatch_batch),
    Target("serving", "repro.serving.autoscale", "ElasticityController.observe"),
    Target("serving", "repro.serving.stream", "StreamingFrontend.serve"),
]

#: per-layer metric name -> unit, in the order ``BENCHMARK.json`` lists them
PER_LAYER: Dict[str, str] = {}
for _target in TARGETS:
    PER_LAYER[f"{_target.name}.calls"] = "count"
    PER_LAYER[f"{_target.name}.busy_s"] = "s"
    PER_LAYER[f"{_target.name}.self_s"] = "s"
PER_LAYER.update({
    "storage.ObjectStore.put.bytes": "B",
    "storage.ObjectStore.get.bytes": "B",
    "storage.deflate.ratio": "ratio",
    "core.checknrun.delta_ratio": "ratio",
    "core.fabric.send.bytes": "B",
    "serving.ReplicaDispatcher.dispatch.mean_batch": "requests",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.evictions": "count",
    "serving.credit_wait_p99_s": "s",
    "root.busy_s": "s",
    "unattributed.self_s": "s",
    "trace_overhead_share": "share",
})
del _target


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(table: Dict[str, Dict[str, float]],
                      counters: Dict[str, float],
                      extras: Dict[str, float],
                      root_name: str) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced run.

    ``table`` is :func:`~perfbench.spans.layer_table` output, ``counters``
    the recorder's measure counts, and ``extras`` what the workload took
    from its own reports (cache, credit window) plus the trace overhead.
    Functions a workload never calls read 0.
    """
    out: Dict[str, float] = {}
    for target in TARGETS:
        row = table.get(target.name, {})
        for field in ("calls", "busy_s", "self_s"):
            out[f"{target.name}.{field}"] = float(row.get(field, 0.0))
    root = table.get(root_name, {"busy_s": 0.0, "self_s": 0.0})
    dispatches = out["serving.ReplicaDispatcher.dispatch.calls"]
    out.update({
        "storage.ObjectStore.put.bytes":
            float(counters.get("storage.ObjectStore.put.bytes", 0)),
        "storage.ObjectStore.get.bytes":
            float(counters.get("storage.ObjectStore.get.bytes", 0)),
        "storage.deflate.ratio": _ratio(
            counters.get("storage.deflate.bytes_out", 0),
            counters.get("storage.deflate.bytes_in", 0)),
        "core.checknrun.delta_ratio": _ratio(
            counters.get("core.checknrun.delta_bytes", 0),
            counters.get("core.checknrun.full_bytes", 0)),
        "core.fabric.send.bytes":
            float(counters.get("core.fabric.send.bytes", 0)),
        "serving.ReplicaDispatcher.dispatch.mean_batch": _ratio(
            counters.get("serving.ReplicaDispatcher.dispatch.requests", 0),
            dispatches),
        "serving.cache.hit_ratio": float(extras.get("cache_hit_ratio", 0.0)),
        "serving.cache.evictions": float(extras.get("cache_evictions", 0)),
        "serving.credit_wait_p99_s":
            float(extras.get("credit_wait_p99_s", 0.0)),
        "root.busy_s": float(root["busy_s"]),
        "unattributed.self_s": float(root["self_s"]),
        "trace_overhead_share": float(extras["trace_overhead_share"]),
    })
    missing = sorted(set(PER_LAYER) - set(out))
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return out

"""The three seeded workloads and their correctness checks.

Each workload drives the program only through its public API.  A
workload is run as ``setup()`` (timed as set-up), then repeated
``before_step()`` (untimed preparation), ``step()`` (the timed unit) and
``after_step(seconds, scale)`` (untimed bookkeeping and checks).  Every
input is derived from the workload seed; the program sees only
generated inputs."""

from __future__ import annotations

import gc
import math
import time
from typing import Dict, List, Sequence

import numpy as np

from repro import ClusterConfig, InferenceServer, NDPipeCluster
from repro.data.drift import DriftingPhotoWorld, WorldConfig
from repro.models.registry import tiny_model
from repro.nn.tensor import Tensor, inference_mode
from repro.serving import ServingConfig
from repro.serving.config import StreamConfig
from repro.serving.protocol import COMPLETED
from repro.serving.stream import StreamingFrontend
from repro.storage.compression import compress_array
from repro.storage.imageformat import preprocess
from repro.workloads.continuous import flash_crowd_requests

__all__ = ["CheckFailed", "IngestWorkload", "RetrainWorkload",
           "ServeWorkload", "WORKLOADS", "percentile"]


class CheckFailed(AssertionError):
    """A program output failed one of the benchmark's correctness checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _argmax_agrees(probs: np.ndarray, label: int) -> bool:
    """``label`` is the argmax of ``probs``, up to a last-ulp near-tie.

    A batch-N GEMM reduces in another order than the reference's, so two
    classes within 1e-9 of each other may swap; anything wider is wrong.
    """
    return bool(probs[label] >= probs.max() - 1e-9)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    return probs / probs.sum(axis=-1, keepdims=True)


def _cluster_model(seed: int):
    return lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=seed)


def _world(seed: int) -> DriftingPhotoWorld:
    return DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3,
        seed=seed))


class Workload:
    """Shared shape of a workload; subclasses fill in the four phases."""

    name = ""
    why = ""
    #: steps every run makes even when ``--seconds`` is shorter
    min_steps = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def before_step(self) -> None:
        """Untimed preparation of the next step."""

    def step(self) -> None:
        raise NotImplementedError

    def after_step(self, seconds: float, scale: float) -> None:
        """Untimed: record the step's timing and check its outputs.

        ``seconds`` is the step's wall time; ``scale`` converts wall
        seconds measured during the step to reference seconds
        (:mod:`perfbench.clock`).
        """
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed: checks that need the whole run."""

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError

    def summary(self) -> Dict[str, tuple]:
        """The workload's named end-to-end metrics: name -> (value, unit)."""
        raise NotImplementedError

    def generic(self) -> Dict[str, float]:
        """Values of the shared end-to-end names (``throughput_per_s``,
        ``p50_s``, ``second_latency_s``) for this workload."""
        raise NotImplementedError

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer numbers the workload reads from the program's reports."""
        return {}


# -- ingest ---------------------------------------------------------------------

class IngestWorkload(Workload):
    """Closed loop, one client, uploading a drift-world photo stream."""

    name = "ingest"
    why = ("the only writer: preprocess, full-batch classify, encode + "
           "deflate + put on two stores, journal and DB")
    #: photos a cluster takes before it is replaced (bounds memory)
    photos_per_cluster = 1024

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = ClusterConfig(replication=2, journal_uploads=True,
                                    seed=seed)
        self.call_s: List[float] = []
        self.photos = 0
        self.stored_bytes = 0
        self.lifetimes = 0

    def stream(self, day: int):
        """The ``day``-th block of the photo stream (images, labels)."""
        return _world(self.seed).sample(
            self.photos_per_cluster, day,
            rng=np.random.default_rng([self.seed, day]))

    def setup(self) -> None:
        self.cluster = None
        self._new_cluster()

    def _new_cluster(self) -> None:
        if self.cluster is not None:
            self._close_cluster()
            # the old cluster is cyclic garbage; free it here, untimed,
            # rather than in whichever timed step the collector picks
            self.cluster = None
            gc.collect()
        self.cluster = NDPipeCluster(_cluster_model(self.seed), self.config)
        self.images, self.labels = self.stream(self.lifetimes)
        self.lifetimes += 1
        self.cursor = 0
        self.ids: List[str] = []

    def _close_cluster(self) -> None:
        check_ingest(self.cluster, self.ids, self.images[:len(self.ids)],
                     sample=8)
        self.stored_bytes += stored_bytes(self.cluster)

    def before_step(self) -> None:
        if self.cursor >= len(self.images):
            self._new_cluster()
        hi = self.cursor + self.config.batch_size
        self._block = self.images[self.cursor:hi]
        self._block_labels = self.labels[self.cursor:hi]

    def step(self) -> None:
        self._landed = self.cluster.ingest(self._block,
                                           train_labels=self._block_labels)

    def after_step(self, seconds: float, scale: float) -> None:
        self.call_s.append(seconds * scale)
        self.attempted += len(self._block)
        self.failed += len(self._block) - len(self._landed)
        self.photos += len(self._landed)
        self.ids.extend(self._landed)
        self.cursor += len(self._block)

    def finish(self) -> None:
        self._close_cluster()
        self.cluster = None

    def sizes(self) -> Dict[str, object]:
        return {"batch_size": self.config.batch_size,
                "num_stores": self.config.num_stores,
                "replication": self.config.replication,
                "journal_uploads": self.config.journal_uploads,
                "nominal_raw_bytes": self.config.nominal_raw_bytes,
                "photos_per_cluster": self.photos_per_cluster,
                "image_size": 16, "calls": len(self.call_s),
                "photos": self.photos}

    def summary(self) -> Dict[str, tuple]:
        return {
            "ingest_photos_per_s": (self.photos / sum(self.call_s), "1/s"),
            "ingest_call_p50_s": (percentile(self.call_s, 50), "s"),
            "ingest_call_p90_s": (percentile(self.call_s, 90), "s"),
            "stored_bytes_per_photo": (self.stored_bytes / self.photos, "B"),
        }

    def generic(self) -> Dict[str, float]:
        s = self.summary()
        return {"throughput_per_s": s["ingest_photos_per_s"][0],
                "p50_s": s["ingest_call_p50_s"][0],
                "second_latency_s": s["ingest_call_p90_s"][0]}


def stored_bytes(cluster: NDPipeCluster) -> int:
    """Bytes held by every store's object store, replicas included."""
    return sum(store.objects.bytes_by_prefix("") for store in cluster.stores)


def check_ingest(cluster: NDPipeCluster, ids: Sequence[str],
                 images: np.ndarray, sample: int) -> None:
    """Every id is in the DB on ``replication`` stores; for a sample, the
    stored preprocessed tensor equals ``preprocess(pixels)`` bit for bit.

    ``images[i]`` are the pixels uploaded as ``ids[i]``.
    """
    _require(len(set(ids)) == len(ids), "ingest returned duplicate ids")
    _require(len(ids) == len(images),
             f"{len(images)} photos uploaded but {len(ids)} ids returned")
    stores = {store.store_id: store for store in cluster.stores}
    for pid in ids:
        _require(pid in cluster.database, f"{pid} is not in the database")
        holders = cluster.replicas.holders(pid)
        _require(len(set(holders)) == cluster.replication,
                 f"{pid} is on {holders}, want {cluster.replication} stores")
        for holder in holders:
            objects = stores[holder].objects
            _require(objects.exists(objects.raw_key(pid))
                     and objects.exists(objects.preproc_key(pid)),
                     f"{pid} is missing on {holder}")
    rng = np.random.default_rng(len(ids))
    picks = rng.choice(len(ids), size=min(sample, len(ids)), replace=False)
    for row in sorted(picks):
        pid = ids[row]
        want = preprocess(images[row])
        for holder in cluster.replicas.holders(pid):
            try:
                got = stores[holder].load_preprocessed(pid)
            except Exception as exc:  # any read failure is a wrong output
                raise CheckFailed(
                    f"{pid} on {holder} does not read back: {exc!r}") from exc
            _require(got.dtype == want.dtype and np.array_equal(got, want),
                     f"{pid} on {holder} reads back a different tensor")


# -- retrain --------------------------------------------------------------------

class RetrainWorkload(Workload):
    """Refresh cycles: FT-DMP fine-tune, then relabel every outdated photo."""

    name = "retrain"
    why = ("the read and training path: store-stage features, Tuner "
           "backward/Adam, Check-N-Run deltas, whole-model relabel")
    min_steps = 2
    corpus = 512
    epochs = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = ClusterConfig(replication=2, journal_uploads=True,
                                    seed=seed)
        self.cycle_s: List[float] = []
        self.finetune_s: List[float] = []
        self.relabel_s: List[float] = []
        self.relabelled = 0

    def corpus_photos(self):
        return _world(self.seed).sample(
            self.corpus, 0, rng=np.random.default_rng([self.seed, 0]))

    def setup(self) -> None:
        self.cluster = NDPipeCluster(_cluster_model(self.seed), self.config)
        images, labels = self.corpus_photos()
        self.cluster.ingest(images, train_labels=labels)

    def step(self) -> None:
        self._start = time.perf_counter()
        self._report = self.cluster.finetune(epochs=self.epochs)
        self._mid = time.perf_counter()
        self._stats = self.cluster.offline_relabel(only_outdated=True)
        self._end = time.perf_counter()

    def after_step(self, seconds: float, scale: float) -> None:
        self.finetune_s.append((self._mid - self._start) * scale)
        self.relabel_s.append((self._end - self._mid) * scale)
        self.cycle_s.append((self._end - self._start) * scale)
        stats = self._stats
        distribution = self.cluster.tuner.distributions[-1]
        self.attempted += stats.photos_processed + stats.photos_deferred
        self.failed += (stats.photos_deferred + len(stats.stores_skipped)
                        + len(distribution.stores_missed)
                        + self._report.photos_deferred)
        self.relabelled += stats.photos_processed
        check_retrain(self.cluster, self._report, stats, sample=8,
                      seed=len(self.cycle_s))

    def sizes(self) -> Dict[str, object]:
        return {"corpus": self.corpus, "epochs": self.epochs,
                "batch_size": self.config.batch_size,
                "num_stores": self.config.num_stores,
                "replication": self.config.replication,
                "image_size": 16, "cycles": len(self.cycle_s)}

    def summary(self) -> Dict[str, tuple]:
        return {
            "refresh_cycle_p50_s": (percentile(self.cycle_s, 50), "s"),
            "finetune_round_p50_s": (percentile(self.finetune_s, 50), "s"),
            "relabel_photos_per_s":
                (self.relabelled / sum(self.relabel_s), "1/s"),
        }

    def generic(self) -> Dict[str, float]:
        s = self.summary()
        return {"throughput_per_s": s["relabel_photos_per_s"][0],
                "p50_s": s["refresh_cycle_p50_s"][0],
                "second_latency_s": s["finetune_round_p50_s"][0]}


def check_retrain(cluster: NDPipeCluster, report, stats, sample: int,
                  seed: int) -> None:
    """After one refresh cycle: stores hold the Tuner's model, every label
    is at the Tuner's version, sampled labels are the Tuner model's argmax,
    and the fine-tune losses are finite."""
    tuner = cluster.tuner
    state = tuner.model.state_dict()
    for store in cluster.stores:
        if not store.is_available:
            continue
        _require(store.model_version == tuner.version,
                 f"{store.store_id} is at v{store.model_version}, "
                 f"Tuner at v{tuner.version}")
        replica = store.model.state_dict()
        for key, value in state.items():
            _require(np.array_equal(replica[key], value),
                     f"{store.store_id} differs from the Tuner in {key}")
    counts = cluster.database.version_counts()
    _require(counts == {tuner.version: len(cluster.database)},
             f"labels by model version {counts}, want all at "
             f"v{tuner.version}")
    _require(stats.photos_processed == len(cluster.database),
             f"relabelled {stats.photos_processed} of "
             f"{len(cluster.database)} photos")
    losses = [epoch.loss for epoch in report.epochs]
    _require(bool(losses) and all(math.isfinite(x) for x in losses),
             f"fine-tune losses {losses}")
    by_store = {store.store_id: store for store in cluster.stores}
    ids = sorted(cluster.database.snapshot_labels())
    rng = np.random.default_rng(seed)
    picks = [ids[i] for i in sorted(rng.choice(
        len(ids), size=min(sample, len(ids)), replace=False))]
    records = [cluster.database.lookup(pid) for pid in picks]
    inputs = np.stack([by_store[r.location].load_preprocessed(r.photo_id)
                       for r in records])
    was_training = tuner.model.training
    tuner.model.eval()
    try:
        with inference_mode():
            probs = _softmax(tuner.model(Tensor(inputs)).data)
    finally:
        tuner.model.train(was_training)
    for row, record in enumerate(records):
        _require(_argmax_agrees(probs[row], record.label),
                 f"{record.photo_id} labelled {record.label}, Tuner model "
                 f"says {int(probs[row].argmax())}")


# -- serve ----------------------------------------------------------------------

class ServeWorkload(Workload):
    """Open loop on the serving layer's logical clock: flash-crowd traces
    into an autoscaling StreamingFrontend."""

    name = "serve"
    why = ("the only workload that runs admission, credits, batcher, cache, "
           "dispatcher and autoscaler; forward runs at tiny batches")
    traces = 6
    min_steps = 6
    num_requests = 2500
    pool_size = 128
    skew = 1.1
    base_rps = 600.0
    flash_rps = 3000.0
    flash_start_s = 0.5
    flash_duration_s = 0.25
    #: share of the requested photos' compressed footprint the cache holds
    cache_share = 0.5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.serve_s: List[float] = []
        self.completed = 0
        self.reports: List = []
        self.first_latencies: Dict[int, List[float]] = {}

    def make_traces(self) -> List[List]:
        return [flash_crowd_requests(
            num_requests=self.num_requests, base_rps=self.base_rps,
            flash_rps=self.flash_rps, flash_start_s=self.flash_start_s,
            flash_duration_s=self.flash_duration_s,
            seed=1000 * self.seed + k, pool_size=self.pool_size,
            skew=self.skew, pool_seed=self.seed)
            for k in range(self.traces)]

    def setup(self) -> None:
        self.trace_list = self.make_traces()
        self.pool_bytes = requested_footprint(self.trace_list)
        self.config = ServingConfig(
            replicas=1, deadline_s=1.0,
            cache_capacity_bytes=int(self.pool_bytes * self.cache_share))
        self.stream = StreamConfig(min_replicas=1, max_replicas=6)
        self.reference = InferenceServer(self._model(), name="reference")

    def _model(self):
        return _cluster_model(self.seed)()

    def before_step(self) -> None:
        self._index = len(self.serve_s) % self.traces
        self.frontend = None
        gc.collect()  # the previous front end is cyclic garbage
        self.frontend = StreamingFrontend(
            lambda i: InferenceServer(self._model(),
                                      name=f"stream-replica-{i}"),
            self.config, self.stream)

    def step(self) -> None:
        self._report = self.frontend.serve(self.trace_list[self._index])

    def after_step(self, seconds: float, scale: float) -> None:
        report = self._report
        trace = self.trace_list[self._index]
        self.serve_s.append(seconds * scale)
        self.completed += report.completed
        self.attempted += report.offered
        self.failed += report.cancelled + report.expired + report.queue_full
        check_serve(report, trace, self.reference, sample=8,
                    seed=len(self.serve_s))
        if self._index in self.first_latencies:
            _require(report.latencies_s == self.first_latencies[self._index],
                     "the same trace gave different modelled latencies")
        else:
            self.first_latencies[self._index] = list(report.latencies_s)
            self.reports.append(report)

    def sizes(self) -> Dict[str, object]:
        return {"traces": self.traces, "num_requests": self.num_requests,
                "pool_size": self.pool_size, "skew": self.skew,
                "pool_compressed_bytes": self.pool_bytes,
                "cache_capacity_bytes": self.config.cache_capacity_bytes,
                "base_rps": self.base_rps, "flash_rps": self.flash_rps,
                "flash_start_s": self.flash_start_s,
                "flash_duration_s": self.flash_duration_s,
                "slo_s": self.config.slo_s,
                "deadline_s": self.config.deadline_s,
                "min_replicas": self.stream.min_replicas,
                "max_replicas": self.stream.max_replicas,
                "generator_lateness_s": 0.0,
                "serves": len(self.serve_s)}

    def _modelled(self) -> List[float]:
        return [x for report in self.reports for x in report.latencies_s]

    def summary(self) -> Dict[str, tuple]:
        latencies = self._modelled()
        offered = sum(report.offered for report in self.reports)
        slo = self.config.slo_s
        return {
            "serve_requests_per_s":
                (self.completed / sum(self.serve_s), "1/s"),
            "serve_p50_model_s": (percentile(latencies, 50), "s"),
            "serve_p99_model_s": (percentile(latencies, 99), "s"),
            "serve_slo_share":
                (sum(1 for x in latencies if x <= slo) / offered, "share"),
        }

    def generic(self) -> Dict[str, float]:
        s = self.summary()
        return {"throughput_per_s": s["serve_requests_per_s"][0],
                "p50_s": s["serve_p50_model_s"][0],
                "second_latency_s": s["serve_p99_model_s"][0]}

    def layer_extras(self) -> Dict[str, float]:
        hits = sum(r.cache_hits for r in self.reports)
        misses = sum(r.cache_misses for r in self.reports)
        waits = [x for r in self.reports for x in r.credit_waits_s]
        return {"cache_hit_ratio": hits / max(1, hits + misses),
                "cache_evictions": sum(r.cache_evictions
                                       for r in self.reports),
                "credit_wait_p99_s": percentile(waits, 99)}


def requested_footprint(traces) -> int:
    """Compressed bytes of every distinct photo the traces request: what
    the TensorCache would hold if its budget were unlimited."""
    distinct = {}
    for trace in traces:
        for request in trace:
            distinct.setdefault(request.pixels.tobytes(), request.pixels)
    level = ServingConfig().compression_level
    return sum(len(compress_array(preprocess(pixels), level=level))
               for pixels in distinct.values())


def check_serve(report, trace, reference: InferenceServer, sample: int,
                seed: int) -> None:
    """Requests are conserved, none was shed on a full queue, and sampled
    completed labels equal a direct ``classify_preprocessed``."""
    _require(report.offered == len(trace),
             f"offered {report.offered} of {len(trace)} requests")
    _require(report.offered == report.completed + report.cancelled
             + report.expired,
             f"offered {report.offered} != completed {report.completed} + "
             f"cancelled {report.cancelled} + expired {report.expired}")
    _require(report.queue_full == 0, f"queue_full = {report.queue_full}")
    by_id = {request.request_id: request for request in trace}
    completed = [o for o in report.outcomes if o.status == COMPLETED]
    _require(len(completed) == report.completed,
             "completed outcomes disagree with the completed count")
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(completed),
                              size=min(sample, len(completed)),
                              replace=False))
    batch = np.stack([preprocess(by_id[completed[i].request_id].pixels)
                      for i in picks])
    with inference_mode():
        probs = _softmax(reference.model(Tensor(batch)).data)
    for row, i in enumerate(picks):
        outcome = completed[i]
        _require(_argmax_agrees(probs[row], outcome.label),
                 f"{outcome.request_id} served label {outcome.label}, "
                 f"reference says {int(probs[row].argmax())}")


WORKLOADS = {cls.name: cls for cls in (IngestWorkload, RetrainWorkload,
                                       ServeWorkload)}

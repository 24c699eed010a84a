"""Workload inputs, correctness checks and the untraced run."""

import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from perfbench import run
from perfbench.clock import PairedCalibration
from perfbench.layers import PER_LAYER, TARGETS
from perfbench.spans import _patch_sites
from perfbench.workloads import (
    WORKLOADS,
    CheckFailed,
    IngestWorkload,
    RetrainWorkload,
    ServeWorkload,
    _cluster_model,
    check_ingest,
    check_retrain,
    check_serve,
)
from repro import NDPipeCluster
from repro.storage.photodb import LabelRecord

#: seed reserved for these tests; the benchmark was tuned on others
FRESH_SEED = 90210


def _requests_equal(a, b):
    return len(a) == len(b) and all(
        x.request_id == y.request_id and x.arrival_s == y.arrival_s
        and np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))


def test_same_seed_gives_identical_inputs():
    for day in (0, 3):
        a, b = IngestWorkload(5).stream(day), IngestWorkload(5).stream(day)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(IngestWorkload(5).stream(0)[0],
                              IngestWorkload(6).stream(0)[0])
    a, b = RetrainWorkload(5).corpus_photos(), RetrainWorkload(5).corpus_photos()
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    traces = ServeWorkload(5).make_traces()
    assert all(_requests_equal(x, y)
               for x, y in zip(traces, ServeWorkload(5).make_traces()))
    assert not _requests_equal(traces[0], ServeWorkload(6).make_traces()[0])


def _small_cluster(seed=3, photos=24):
    workload = IngestWorkload(seed)
    cluster = NDPipeCluster(_cluster_model(seed),
                            replace(workload.config, batch_size=8))
    images, labels = workload.stream(0)
    images, labels = images[:photos], labels[:photos]
    ids = cluster.ingest(images, train_labels=labels)
    return cluster, ids, images


def test_ingest_check_catches_a_truncated_blob():
    cluster, ids, images = _small_cluster()
    check_ingest(cluster, ids, images, sample=len(ids))
    store = next(s for s in cluster.stores
                 if s.store_id == cluster.replicas.holders(ids[5])[1])
    key = store.objects.preproc_key(ids[5])
    store.objects.corrupt_object(key, store.objects.get(key)[:-7])
    with pytest.raises(CheckFailed, match=ids[5]):
        check_ingest(cluster, ids, images, sample=len(ids))


def test_ingest_check_catches_a_lost_replica():
    cluster, ids, images = _small_cluster()
    cluster.replicas.remove_holder(ids[2], cluster.replicas.holders(ids[2])[1])
    with pytest.raises(CheckFailed, match="want 2 stores"):
        check_ingest(cluster, ids, images, sample=1)


def test_retrain_check_catches_a_flipped_label():
    cluster, ids, _ = _small_cluster(photos=32)
    report = cluster.finetune(epochs=1)
    stats = cluster.offline_relabel(only_outdated=True)
    check_retrain(cluster, report, stats, sample=len(ids), seed=0)
    record = cluster.database.lookup(ids[7])
    cluster.database.upsert(LabelRecord(
        photo_id=record.photo_id, label=(record.label + 1) % 8,
        model_version=record.model_version, location=record.location))
    with pytest.raises(CheckFailed, match=ids[7]):
        check_retrain(cluster, report, stats, sample=len(ids), seed=0)


def test_retrain_check_catches_a_stale_store():
    cluster, _, _ = _small_cluster(photos=32)
    report = cluster.finetune(epochs=1)
    stats = cluster.offline_relabel(only_outdated=True)
    cluster.stores[1].model_version -= 1
    with pytest.raises(CheckFailed, match="pipestore-1"):
        check_retrain(cluster, report, stats, sample=1, seed=0)


def _served(seed=3, num_requests=300):
    workload = ServeWorkload(seed)
    workload.num_requests = num_requests
    workload.traces = 1
    workload.setup()
    workload.before_step()
    workload.step()
    return workload, workload._report, workload.trace_list[0]


def test_serve_check_catches_a_flipped_label():
    workload, report, trace = _served()
    check_serve(report, trace, workload.reference, sample=report.completed,
                seed=0)
    outcome = next(o for o in report.outcomes if o.label is not None)
    outcome.label = (outcome.label + 1) % 8
    with pytest.raises(CheckFailed, match=outcome.request_id):
        check_serve(report, trace, workload.reference,
                    sample=report.completed, seed=0)


def test_serve_check_catches_a_lost_request():
    workload, report, trace = _served()
    report.completed -= 1
    with pytest.raises(CheckFailed, match="offered"):
        check_serve(report, trace, workload.reference, sample=1, seed=0)


def test_untraced_run_leaves_every_wrapped_function_original():
    sites = [site for target in TARGETS for site in _patch_sites(target)]
    seen = []

    class Probe(IngestWorkload):
        def step(self):
            seen.append(all(vars(ns)[attr] is original
                            for ns, attr, original in sites))
            super().step()

    workload = Probe(FRESH_SEED)
    workload.setup()
    run.run_steps(workload, 0.0, PairedCalibration())
    assert seen == [True]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_fresh_seed_passes_every_check(name):
    # the full-size workload, minimum number of steps; every check runs
    # in after_step / finish and raises CheckFailed on a wrong output
    workload = WORKLOADS[name](FRESH_SEED)
    workload.setup()
    steps, _ = run.run_steps(workload, 0.0, PairedCalibration())
    workload.finish()
    assert steps == workload.min_steps
    assert workload.attempted > 0 and workload.failed == 0
    assert all(v > 0 for v in workload.generic().values())


def test_benchmark_json_matches_the_code():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert len(spec["per_layer"]) <= 128
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(metric["name"]), metric
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

"""Hot-path implementation switches: vectorized vs scalar reference.

The perf-trajectory work (ISSUE 6) vectorized four hot paths — ingest
classification batching, NPE preprocess, preprocessed-binary decode, and
the numpy autograd contractions — and replaced bytes-concatenation with
zero-copy ``memoryview`` slicing through the storage codecs.  Every
optimized path keeps its original scalar implementation behind a flag so

* the equivalence tests can prove, same seeds in, that the vectorized
  code produces **bit-identical floats and identical metric counters**
  (``tests/test_equivalence.py``, ``tests/nn/test_functional_equivalence``);
* the perf harness (``repro perf``) can measure the speedup of the
  vectorized paths against the historical scalar paths on the same
  machine, in the same process.

Flags and what they gate
------------------------

``vectorized_preprocess``
    Ingest preprocesses whole upload batches in one elementwise numpy
    call instead of per-photo.  Elementwise, therefore bit-neutral.
``vectorized_autograd``
    ``nn/functional``'s conv contractions run as one batched
    ``np.matmul`` over every group instead of the per-group im2col +
    ``np.matmul`` loop of ``_conv2d_grouped``, and
    ``BatchNorm2d`` takes a raw-numpy eval path that performs the exact
    same elementwise operations without building autograd nodes.  The
    contraction order over the reduced axis is unchanged, so outputs are
    bit-identical; the equivalence suite enforces this.  (The frozen-front
    BatchNorm fold, ``nn.layers.Conv2d.forward_folded``, is not a flag:
    it keys on the model being frozen and in eval mode, so every flag
    setting runs it.)
``batch_decode``
    PipeStore decodes a batch of preprocessed binaries directly into one
    preallocated ``(N, C, H, W)`` array instead of per-photo
    decode + copy + ``np.stack``.  Byte-level identical.
``zero_copy``
    Codec/delta readers slice through ``memoryview`` /
    ``np.frombuffer(offset=...)`` instead of copying ``bytes`` slices.
    Byte-level identical.
``batched_ingest``
    ``NDPipeCluster.ingest`` classifies uploads in micro-batches of the
    cluster's ``batch_size`` instead of one batch-1 forward per photo.
    This is a *scheduling* change: the per-photo labels/argmax agree,
    but confidences may differ in the last float ulps because BLAS
    reduces a batch-N GEMM differently from N batch-1 calls.  It is
    therefore a separate flag from the bit-neutral vectorizations, and
    the golden checkpoint-CRC test holds it fixed while toggling the
    others.

``scalar_mode()`` turns everything off (the historical implementation);
``NDPIPE_SCALAR_PATH=1`` does the same for a whole process.  All
switches default to on.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

__all__ = ["FastPathFlags", "flags", "overrides", "scalar_mode", "set_flags"]


@dataclass(frozen=True)
class FastPathFlags:
    """Which optimized implementations are active (all on by default)."""

    batched_ingest: bool = True
    vectorized_preprocess: bool = True
    vectorized_autograd: bool = True
    batch_decode: bool = True
    zero_copy: bool = True

    @classmethod
    def all_off(cls) -> "FastPathFlags":
        return cls(**{f.name: False for f in fields(cls)})

    @classmethod
    def from_env(cls) -> "FastPathFlags":
        if os.environ.get("NDPIPE_SCALAR_PATH"):
            return cls.all_off()
        return cls()


_lock = threading.Lock()
_flags = FastPathFlags.from_env()


def flags() -> FastPathFlags:
    """The currently active switch set."""
    return _flags


def set_flags(new_flags: FastPathFlags) -> FastPathFlags:
    """Install ``new_flags`` globally; returns the previous set."""
    global _flags
    with _lock:
        previous = _flags
        _flags = new_flags
    return previous


@contextmanager
def overrides(**changes: bool):
    """Temporarily override individual switches.

    >>> with overrides(vectorized_autograd=False):
    ...     ...  # scalar per-group matmul conv path
    """
    previous = set_flags(replace(_flags, **changes))
    try:
        yield _flags
    finally:
        set_flags(previous)


@contextmanager
def scalar_mode():
    """Run the historical scalar implementation of every hot path."""
    previous = set_flags(FastPathFlags.all_off())
    try:
        yield _flags
    finally:
        set_flags(previous)

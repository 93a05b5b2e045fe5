"""Each benchmark correctness check passes on correct output and fails on corrupted output."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import Histogram, PartitionSpec, SynopsisSpec, build
from repro.service import BatchQueryEngine, QueryBatch, SynopsisStore

from perfbench import checks, inputs


@pytest.fixture(scope="module")
def model():
    return inputs.zipf_value_pdf(np.random.default_rng(7), 64, ranked=False)


def _hist_spec(budget=6):
    return SynopsisSpec(kind="histogram", budget=budget, metric="sse")


def test_served_answers_one_ulp_off_fail(model):
    engine = BatchQueryEngine.from_model(build(model, _hist_spec()), model, "sse")
    stream = inputs.query_stream(np.random.default_rng(1), 64, 300)
    batch = QueryBatch(stream.kinds, stream.starts, stream.ends)
    answers, errors = engine.answer(batch), engine.attribute_errors(batch)
    assert checks.served_bit_identical(answers.copy(), errors.copy(), answers, errors) == []

    moved = answers.copy()
    moved[17] = np.nextafter(moved[17], np.inf)
    assert checks.served_bit_identical(moved, errors, answers, errors)
    moved_error = errors.copy()
    moved_error[3] = np.nextafter(moved_error[3], -np.inf)
    assert checks.served_bit_identical(answers, moved_error, answers, errors)


def test_shifted_bucket_boundary_fails(model):
    spec = _hist_spec()
    histogram = build(model, spec)
    assert checks.histogram_errors([(model, spec, histogram)]) == []

    columns = histogram.column_arrays()
    starts, ends = columns["starts"].copy(), columns["ends"].copy()
    k = int(np.flatnonzero(ends[1:] > starts[1:])[0])  # bucket k+1 spans 2+ items
    ends[k] += 1
    starts[k + 1] += 1
    shifted = Histogram.from_arrays(starts, ends, columns["representatives"].copy(),
                                    histogram.domain_size)
    assert checks.histogram_errors([(model, spec, shifted)])


def test_flipped_pack_byte_fails(model, tmp_path):
    original = tmp_path / "store"
    store = SynopsisStore(original, format="columnar")
    entries = []
    for spec in (_hist_spec(4), SynopsisSpec(kind="wavelet", budget=8, metric="sse")):
        entries.append((model, spec, store.get_or_build(model, spec)))
    assert checks.reopened_store(original, entries) == []

    copy = tmp_path / "copy"
    shutil.copytree(original, copy)
    pack = copy / "synopses.pack"
    raw = bytearray(pack.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    pack.write_bytes(bytes(raw))
    assert checks.reopened_store(copy, entries)
    assert checks.reopened_store(original, entries) == []


def test_wavelet_and_partition_checks(model):
    restricted = build(model, SynopsisSpec(kind="wavelet", budget=8, metric="sae"))
    thresholded = build(model, SynopsisSpec(kind="wavelet", budget=8, metric="sse"))
    assert checks.wavelet_beats_thresholding(model, "sae", restricted, thresholded) == []
    assert checks.wavelet_beats_thresholding(model, "sae", thresholded, restricted)

    partitioned = build(model, SynopsisSpec(
        kind="partitioned", budget=8, metric="sse",
        partition=PartitionSpec(shards=2, strategy="equal_mass")))
    assert checks.partition_no_better_than_flat(model, partitioned, 8) == []
    # A synopsis with twice the budget can beat the flat optimum at 8.
    assert checks.partition_no_better_than_flat(model, build(model, _hist_spec(16)), 8)


def test_daemon_counters():
    assert checks.daemon_counters({"internal_errors": 0, "protocol_errors": 0}) == []
    assert checks.daemon_counters({"internal_errors": 1, "protocol_errors": 0})
    assert checks.daemon_counters({"internal_errors": 0, "protocol_errors": 2})

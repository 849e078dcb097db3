"""Property-based tests of the tsblocks codec and tiered engine.

The codec's contract is *bit-identical* round-trips: timestamps go
through the IEEE-754 total-order bijection into exact integer
delta-of-delta arithmetic, and values through Gorilla XOR, so nothing
ever leaves bit space.  Exactness is therefore tested with
``struct.pack`` equality (NaN payloads and ``-0.0`` signs included),
not ``==``.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fold import fold_summary, fold_values
from repro.storage import (
    SealedBlock,
    TieredSeries,
    decode_floats,
    decode_uints,
    encode_floats,
    encode_uints,
)
from repro.storage.tsblocks import decode_values, encode_values

any_floats = st.floats(allow_nan=True, allow_infinity=True)


def bits_of(values):
    return [struct.pack(">d", v) for v in values]


def monotone_timestamps(t0, gaps):
    t = t0
    out = []
    for gap in gaps:
        t += gap
        out.append(t)
    return out


timestamp_streams = st.builds(
    monotone_timestamps,
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.lists(
        # Mostly-regular cadence with constant runs (gap 0), unit steps
        # and large irregular holes — everything a window can accept.
        st.one_of(
            st.just(0.0),
            st.just(1.0),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
        ),
        min_size=1,
        max_size=120,
    ),
)


@given(values=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                       min_size=0, max_size=150))
@settings(max_examples=50, deadline=None)
def test_uint_codec_roundtrips_exactly(values):
    assert decode_uints(encode_uints(values), len(values)) == values


@given(stamps=timestamp_streams)
@settings(max_examples=50, deadline=None)
def test_monotone_timestamps_roundtrip_bit_identically(stamps):
    decoded = decode_floats(encode_floats(stamps), len(stamps))
    assert bits_of(decoded) == bits_of(stamps)


@given(values=st.lists(any_floats, min_size=0, max_size=150))
@settings(max_examples=50, deadline=None)
def test_value_codec_roundtrips_arbitrary_floats_bit_identically(values):
    # Arbitrary floats: NaNs (payload preserved), ±inf, -0.0, constant
    # runs, denormals — the XOR codec never interprets, only stores bits.
    decoded = decode_values(encode_values(values), len(values))
    assert bits_of(decoded) == bits_of(values)


@given(value=any_floats, count=st.integers(min_value=1, max_value=400))
@settings(max_examples=25, deadline=None)
def test_constant_runs_compress_to_one_bit_per_repeat(value, count):
    encoded = encode_values([value] * count)
    assert len(encoded) <= 8 + (count + 7) // 8 + 1
    assert bits_of(decode_values(encoded, count)) == bits_of([value] * count)


@given(stamps=timestamp_streams, data=st.data())
@settings(max_examples=50, deadline=None)
def test_sealed_block_roundtrips_and_summary_matches_fold(stamps, data):
    values = data.draw(
        st.lists(any_floats, min_size=len(stamps), max_size=len(stamps))
    )
    pairs = list(zip(stamps, values))
    block = SealedBlock.seal(pairs)
    decoded = block.decode()
    assert [bits_of(p) for p in decoded] == [bits_of(p) for p in pairs]
    # Fold-vs-decoded-fold consistency: the seal-time fold is the same
    # fold the query path would compute from the decoded points, and it
    # survives the block document.
    refold = fold_values(v for _t, v in decoded)
    restored = SealedBlock.from_document(block.as_document())
    for fold in (block.fold, restored.fold):
        assert refold[0] == fold[0]
        assert refold[2] == fold[2]
        assert refold[3] == fold[3]
        assert refold[1] == fold[1] or (
            math.isnan(refold[1]) and math.isnan(fold[1])
        )
    assert restored.t_first == block.t_first == decoded[0][0]
    assert restored.t_last == block.t_last == decoded[-1][0]


@given(stamps=timestamp_streams, data=st.data())
@settings(max_examples=30, deadline=None)
def test_tiered_series_equals_raw_window_on_any_stream(stamps, data):
    values = data.draw(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                      allow_infinity=False),
            min_size=len(stamps),
            max_size=len(stamps),
        )
    )
    pairs = list(zip(stamps, values))
    capacity = data.draw(st.integers(min_value=1, max_value=len(pairs) + 10))
    tiered = TieredSeries(capacity, block_size=8)
    raw = TieredSeries(capacity, block_size=0)
    tiered_evicted, raw_evicted = [], []

    def flatten(items, into):
        for item in items:
            if isinstance(item, SealedBlock):
                into.extend(item.decode())
            else:
                into.append(item)

    for offset in range(0, len(pairs), 5):
        batch = pairs[offset:offset + 5]
        flatten(tiered.append_many(batch), tiered_evicted)
        flatten(raw.append_many(batch), raw_evicted)

    assert tiered.all_pairs() == raw.all_pairs()
    assert tiered_evicted == raw_evicted
    assert len(tiered) == len(raw) <= capacity
    t0, t1 = pairs[0][0], pairs[-1][0]
    mid = data.draw(st.floats(min_value=t0, max_value=max(t0, t1),
                              allow_nan=False))
    assert tiered.range(mid, t1 + 1.0) == raw.range(mid, t1 + 1.0)
    assert tiered.tail(7) == raw.tail(7)


@given(stamps=timestamp_streams, data=st.data())
@settings(max_examples=30, deadline=None)
def test_aggregate_equals_fold_of_decoded_range(stamps, data):
    values = data.draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
            min_size=len(stamps),
            max_size=len(stamps),
        )
    )
    pairs = list(zip(stamps, values))
    series = TieredSeries(capacity=len(pairs) + 1, block_size=8)
    series.append_many(pairs)
    t0, t1 = pairs[0][0], pairs[-1][0] + 1.0
    got = series.aggregate(t0, t1)
    expected = fold_summary(fold_values(v for _t, v in pairs))
    assert got["count"] == expected["count"]
    assert got["min"] == expected["min"]
    assert got["max"] == expected["max"]
    assert math.isclose(got["sum"], expected["total"],
                        rel_tol=1e-9, abs_tol=1e-9)

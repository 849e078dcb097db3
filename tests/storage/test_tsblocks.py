"""Unit tests for the tiered, compressed time-series engine."""

import hashlib
import math
import random
import re
import struct

import pytest

from repro.fold import fold_summary, fold_values, merge_fold
from repro.storage.tsblocks import (
    BlockStats,
    SealedBlock,
    TieredSeries,
    decode_floats,
    decode_uints,
    decode_values,
    encode_floats,
    encode_uints,
    encode_values,
)


def walk(count, t0=1000.0, dt=1.0, v0=20.0):
    return [(t0 + i * dt, v0 + (i % 7) * 0.25) for i in range(count)]


# -- codecs --------------------------------------------------------------------


def test_uint_roundtrip_regular_and_irregular():
    regular = [1000 + 10 * i for i in range(500)]
    assert decode_uints(encode_uints(regular), len(regular)) == regular
    irregular = [0, 1, 5, 5, 6, 1 << 40, (1 << 40) + 3]
    assert decode_uints(encode_uints(irregular), len(irregular)) == irregular


def test_uint_regular_stream_costs_about_one_bit_per_point():
    regular = [1_000_000 + i for i in range(4096)]
    encoded = encode_uints(regular)
    # 8-byte header + ~1 bit per subsequent point.
    assert len(encoded) < 8 + 4096 // 8 + 16


def test_float_timestamp_roundtrip_is_exact():
    stamps = [1e9 + i * 0.1 for i in range(300)]
    decoded = decode_floats(encode_floats(stamps), len(stamps))
    assert all(a == b for a, b in zip(decoded, stamps))


def test_value_codec_roundtrips_special_floats():
    values = [1.5, 1.5, -0.0, 0.0, math.inf, -math.inf, math.nan, 2.25]
    decoded = decode_values(encode_values(values), len(values))
    assert len(decoded) == len(values)
    for got, expected in zip(decoded, values):
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected
            # -0.0 == 0.0 compares equal; require the sign to survive too.
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_value_codec_constant_run_is_one_bit_per_repeat():
    values = [42.5] * 1000
    encoded = encode_values(values)
    assert len(encoded) <= 8 + 1000 // 8 + 2
    assert decode_values(encoded, 1000) == values


def test_empty_codec_inputs():
    assert encode_uints([]) == b""
    assert decode_uints(b"", 0) == []
    assert encode_values([]) == b""
    assert decode_values(b"", 0) == []


# -- golden bytes --------------------------------------------------------------
#
# Round-trip tests still pass if the byte format drifts; these digests pin
# the format itself.  Block documents, archive blocks and the compression
# figures in the BENCH files all depend on it.


def _from_bits(bits):
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


def _golden_corpus():
    rng = random.Random(20190326)
    t0 = 1_546_300_800.0
    regular = [t0 + i * 0.1 for i in range(1024)]
    irregular, t = [], t0
    for _ in range(1024):
        t += rng.choice((0.0, 1e-6, 0.1, 0.1, 0.1, 0.37, 5.0, 3600.0))
        irregular.append(t)
    signal = [10.0 + 0.001 * stamp for stamp in regular]
    noisy = [round(20.0 + rng.gauss(0.0, 2.5), 2) for _ in range(1024)]
    # NaNs by bit pattern: math.nan's payload and sign vary by platform.
    specials = [
        _from_bits(0x7FF8000000000000),
        _from_bits(0x7FF8DEAD00000001),
        _from_bits(0xFFF8000000000000),
        math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
        _from_bits(0x000FFFFFFFFFFFFF), 2.2250738585072014e-308,
        1.7976931348623157e308, 1.0, -1.0,
    ]
    special = [rng.choice(specials) for _ in range(512)]
    constant = []
    for _ in range(40):
        constant.extend([rng.choice((21.5, -3.0, 0.0, 1e9))] * rng.randint(1, 60))
    floats = {
        "regular": regular,
        "irregular": irregular,
        "signal": signal,
        "noisy": noisy,
        "special": special,
        "constant": constant,
    }
    for n in (0, 1, 2, 255, 256, 257):
        floats[f"regular[:{n}]"] = regular[:n]
        floats[f"noisy[:{n}]"] = noisy[:n]
    uints = {
        "regular": [1_000_000 + 100 * i for i in range(1024)],
        "irregular": [int(stamp * 1000) for stamp in irregular],
        "wide": [rng.getrandbits(rng.choice((7, 12, 20, 32, 64))) for _ in range(512)],
    }
    for n in (0, 1, 2, 255, 256, 257):
        uints[f"regular[:{n}]"] = uints["regular"][:n]
    return floats, uints


def _golden_digests():
    floats, uints = _golden_corpus()
    digests = {}
    for name, values in floats.items():
        digests[f"floats/{name}"] = hashlib.sha256(encode_floats(values)).hexdigest()
        digests[f"values/{name}"] = hashlib.sha256(encode_values(values)).hexdigest()
    for name, values in uints.items():
        digests[f"uints/{name}"] = hashlib.sha256(encode_uints(values)).hexdigest()
    return digests


#: Digests of the encoders' output on :func:`_golden_corpus`.
GOLDEN_SHA256 = {
    "floats/regular": "1453c2bdea4969475877a5a9bae133a345ca1e04c0b4add2038741dc6a496006",
    "values/regular": "178955d036266c6b0869f01b42e953b4cabeb463c02d363aae690bea016e0f26",
    "floats/irregular": "ef72e0a5d6639ed751279ad12c1c23ba17f831500f6141cde872bd63d5cf61e7",
    "values/irregular": "a8bc171862e653ce811ef73d271a0e0a15278b7d139295078eee43ca286b820a",
    "floats/signal": "9738abdfb1fcccd6458caf24745388753b8f248a578f028ea8a08c7d7805d3dd",
    "values/signal": "57b81294d8eaca053d24e562df5d2f0cac80941e8abd23c9ca0c6f51177e2e03",
    "floats/noisy": "814c685d510ceaa684e028c7feec8ab1c0731779d03250bf4004798ae08596bf",
    "values/noisy": "3cf7c64dd5c09134b7bd3f168e52215db088b2380b6da3ef0662af7584918423",
    "floats/special": "d65bf9d01f0e82b4d40ea8b36d965dbb1ba1bbc8b43634636e56e43ffc186a69",
    "values/special": "747229e65ec0bd7895a3b0eb47113facaf260c710f147c67f1142f5060fd878f",
    "floats/constant": "a0fd3bd90cd0039be927d161134d6ddc758611e72f65d0f51a9f82bd31025e4a",
    "values/constant": "b3d1aa3828003ca9f284144323e3c5f4aa345d1005e8bfddc3ffda2c645fb2e2",
    "floats/regular[:0]": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "values/regular[:0]": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "floats/noisy[:0]": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "values/noisy[:0]": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "floats/regular[:1]": "2f8b1f72c385beafe1272022ff2e767247de951fd3bbd40be9623bccc851a98f",
    "values/regular[:1]": "c8a1aca2c22a355e136ade5259030747ad5e999ef4b55e44380809f0c4060c23",
    "floats/noisy[:1]": "e09b29be181e9288ac748c3cf0d0d47fe213eac7cf530fb2f4d7c91b688870c7",
    "values/noisy[:1]": "fe5bad17bbefe1f944c2f6fda670ffde3f789b7660117000bf8e6c34347b4a54",
    "floats/regular[:2]": "ad2c55fb566a9e4021e2fdc80912dfe8d9eb2e6e7e9e3f82a0f1edf7cd62a2a1",
    "values/regular[:2]": "24ca2432a2ad685c408c08942774f795bb14b45eee5c58717ba7f6a6180f44a3",
    "floats/noisy[:2]": "9d399fbc3aa272337c20131ace95c8144305e3fdd01133e57c423cac7cda6727",
    "values/noisy[:2]": "607160bc34cd984d04070097d304022e861bd1c286250662cd471be9adb70421",
    "floats/regular[:255]": "9de483175ed0db7efe0797b43074194ff1e5e6f7ebb55711be6449cfa2268097",
    "values/regular[:255]": "92bf7366b3940bdc8c60d8a53cb1f65781b1a815e787a771bcfb25baf45e722a",
    "floats/noisy[:255]": "d71f03fd59d219328d1c53e8596ca71a785a206982bccc16da93949517f3bf5b",
    "values/noisy[:255]": "9e533d947149602458a09821a6f54d2660117943da9a37b33022682929e7b748",
    "floats/regular[:256]": "e802e5977fecbaba5c6db839d65dbb550e9e42738ac9b3bb3bcd147f54e31966",
    "values/regular[:256]": "9903272f6a04e84554ef6a461c9c9ce1e43df6f36c1ab57294ca946cdb022000",
    "floats/noisy[:256]": "82c2b108bcafd96dd0ff94c31c38c4c8d49bb2234d3ee14efcc8a094948143ba",
    "values/noisy[:256]": "b66ed88c288796cf860a1af44be51d4bfbee46a830c608ff51623a9a6f1448a6",
    "floats/regular[:257]": "e802e5977fecbaba5c6db839d65dbb550e9e42738ac9b3bb3bcd147f54e31966",
    "values/regular[:257]": "cd1393f0505eaa4e952a9367739dd07b7fa7c28833c05c1abd61b70a0011f095",
    "floats/noisy[:257]": "98cf093e40d45a3fddd4c9bde3f6d750649760eb17be86ea0e8f80b846716b64",
    "values/noisy[:257]": "c6f772960cf2cd0277d1d5aa6408e019c58baf47423f41282ec339af3a345470",
    "uints/regular": "e5fb6ad33b275cc97d4de671c4854b77daa3ecac3c6a39af60c7486cd349225c",
    "uints/irregular": "8ba1110552b8e2600f87723b1f3e445481a30a00b67b680ef09572da374bdfaa",
    "uints/wide": "bc17d92e2d9835292f78dda1d66641d3a01f46a0648d2d08a0ae4df9ddf34ed4",
    "uints/regular[:0]": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "uints/regular[:1]": "ce59b701970051bef0d7efdc1a4196c49ce1bbaaf9c5403626ad7adcc41737e7",
    "uints/regular[:2]": "dac0cbfcebbf7633ba4f9a229d9d662d37f965e2c8a5afbb54efc409f7cfb1e4",
    "uints/regular[:255]": "b7e08f85896a8d77b38e0a997c3be82b29e7b8e7d5d3dfa5ad84919fb8b2b8e3",
    "uints/regular[:256]": "b7e08f85896a8d77b38e0a997c3be82b29e7b8e7d5d3dfa5ad84919fb8b2b8e3",
    "uints/regular[:257]": "b7e08f85896a8d77b38e0a997c3be82b29e7b8e7d5d3dfa5ad84919fb8b2b8e3",
}


def test_encoders_match_golden_bytes():
    assert _golden_digests() == GOLDEN_SHA256


# -- bucket edges and large blocks ---------------------------------------------


def _bits_equal(got, expected):
    """Bit-for-bit float equality (NaN payloads and -0.0 included)."""
    return struct.pack(f">{len(got)}d", *got) == struct.pack(
        f">{len(expected)}d", *expected
    )


def _dod_for_zigzag(n):
    return (n >> 1) if not n & 1 else -((n + 1) >> 1)


@pytest.mark.parametrize(
    "zigzag, bits",
    [
        (0, 1),
        (2**7 - 1, 9),
        (2**7, 15),
        (2**12 - 1, 15),
        (2**12, 24),
        (2**20 - 1, 24),
        (2**20, 37),
        (2**32 - 1, 37),
        (2**32, 73),
    ],
)
def test_dod_bucket_edges(zigzag, bits):
    base = 1 << 40
    values = [base, base + _dod_for_zigzag(zigzag)]
    encoded = encode_uints(values)
    assert len(encoded) == (64 + bits + 7) // 8
    assert decode_uints(encoded, 2) == values


def test_dod_68_bit_bucket():
    values = [0, 2**64 - 1, 0, 2**64 - 1, 2**64 - 1, 1]
    assert decode_uints(encode_uints(values), len(values)) == values
    # Two 68-bit dods (zigzag >= 2^32) follow the 64-bit header.
    assert len(encode_uints(values[:3])) == (64 + 2 * 73 + 7) // 8


@pytest.mark.parametrize("leading", [30, 31, 32, 40, 63])
def test_xor_leading_zero_clamp(leading):
    base = 0x4035000000000000
    xor = 1 << (63 - leading)
    values = [_from_bits(base), _from_bits(base ^ xor), _from_bits(base)]
    assert _bits_equal(decode_values(encode_values(values), 3), values)


@pytest.mark.parametrize(
    "xor", [1, 1 << 63, 1 << 20, (1 << 63) | 1, (1 << 64) - 1]
)
def test_xor_meaningful_width_edges(xor):
    # Widths 1 and 64, each followed by window reuse and a new window.
    base = 0x4035000000000000
    bits = [base, base ^ xor, base, base ^ xor ^ 1, base ^ (xor >> 1)]
    values = [_from_bits(b) for b in bits]
    assert _bits_equal(decode_values(encode_values(values), 5), values)


def test_large_block_roundtrip():
    rng = random.Random(65536)
    count = 65_536
    stamps = [1e9 + i * 0.1 for i in range(count)]
    values = [
        rng.choice((rng.gauss(20.0, 3.0), 21.5, math.nan, -0.0, 5e-324))
        for _ in range(count)
    ]
    assert _bits_equal(decode_floats(encode_floats(stamps), count), stamps)
    assert _bits_equal(decode_values(encode_values(values), count), values)
    block = SealedBlock.seal(list(zip(stamps, values)))
    timestamps, decoded = zip(*block.decode())
    assert _bits_equal(timestamps, stamps)
    assert _bits_equal(decoded, values)


# -- summaries & blocks --------------------------------------------------------


def test_summary_fields():
    block = SealedBlock.seal([(1.0, 5.0), (2.0, -1.0), (3.0, 4.0)])
    assert block.count == 3
    assert block.t_first == 1.0 and block.t_last == 3.0
    assert block.fold == (3, 8.0, -1.0, 5.0)
    doc = block.as_document()
    assert doc[2:] == (3, 1.0, 3.0, -1.0, 5.0, 8.0)


def test_summary_all_nan_extents_are_none():
    block = SealedBlock.seal([(1.0, math.nan), (2.0, math.nan)])
    summary = fold_summary(block.fold)
    assert summary["min"] is None and summary["max"] is None
    assert summary["count"] == 2
    # The block document keeps None extents; the restored fold matches.
    doc = block.as_document()
    assert doc[5] is None and doc[6] is None
    assert fold_summary(SealedBlock.from_document(doc).fold)["min"] is None


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        SealedBlock.seal([])


def test_merge_folds_matches_flat_fold():
    values = [v for _t, v in walk(100)]
    merged = merge_fold(fold_values(values[:40]), fold_values(values[40:]))
    flat = fold_values(values)
    assert merged[0] == flat[0]
    assert merged[2] == flat[2] and merged[3] == flat[3]
    assert merged[1] == pytest.approx(flat[1])


def test_sealed_block_roundtrip_and_document():
    pairs = walk(64)
    block = SealedBlock.seal(pairs)
    assert block.decode() == pairs
    assert block.count == 64
    assert block.nbytes < 16 * 64  # actually compresses
    restored = SealedBlock.from_document(block.as_document())
    assert restored.decode() == pairs
    assert restored == block


# -- TieredSeries: writes, sealing, eviction -----------------------------------


def test_append_seals_full_blocks():
    series = TieredSeries(capacity=10_000, block_size=16)
    series.append_many(walk(40))
    assert series.sealed_blocks == 2
    assert len(series) == 40
    assert series.all_pairs() == walk(40)


def test_block_size_zero_is_a_raw_window():
    series = TieredSeries(capacity=100, block_size=0)
    series.append_many(walk(300))
    assert series.sealed_blocks == 0
    assert len(series) == 100
    assert series.all_pairs() == walk(300)[-100:]


def test_out_of_order_append_rejected():
    series = TieredSeries()
    series.append(5.0, 1.0)
    with pytest.raises(ValueError):
        series.append(4.0, 1.0)
    series.append(5.0, 2.0)  # equal timestamps are fine


def _stats_fields(stats):
    return {name: getattr(stats, name) for name in BlockStats.__slots__}


@pytest.mark.parametrize("across_batches", [False, True])
def test_out_of_order_batch_leaves_series_unchanged(across_batches):
    stats = BlockStats()
    series = TieredSeries(capacity=40, block_size=16, stats=stats)
    series.append_many(walk(50))  # sealed blocks, a head and one eviction
    before = (len(series), series.all_pairs(), series.tail(5))
    counters = _stats_fields(stats)  # after the reads, which decode blocks
    last = series.last_timestamp
    if across_batches:
        batch = [(last - 0.5, 1.0), (last + 1.0, 2.0)]
        message = f"out-of-order point: {last - 0.5} after {last}"
    else:
        batch = [(last + 1.0, 1.0), (last + 3.0, 2.0), (last + 2.0, 3.0)]
        message = f"out-of-order point: {last + 2.0} after {last + 3.0}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        series.append_many(batch)
    assert _stats_fields(stats) == counters
    assert (len(series), series.all_pairs(), series.tail(5)) == before
    assert series.last_timestamp == last


def test_capacity_eviction_is_point_exact():
    series = TieredSeries(capacity=50, block_size=16)
    pairs = walk(173)
    evicted = []
    for offset in range(0, len(pairs), 7):
        for item in series.append_many(pairs[offset:offset + 7]):
            if isinstance(item, SealedBlock):
                evicted.extend(item.decode())
            else:
                evicted.append(item)
    assert len(series) == 50
    assert evicted + series.all_pairs() == pairs


def test_bulk_eviction_yields_whole_blocks():
    series = TieredSeries(capacity=64, block_size=16)
    series.append_many(walk(64))
    evicted = series.append_many(walk(64, t0=2000.0))
    blocks = [item for item in evicted if isinstance(item, SealedBlock)]
    assert blocks, "a 64-point overflow should evict whole sealed blocks"
    decoded = []
    for item in evicted:
        decoded.extend(item.decode() if isinstance(item, SealedBlock) else [item])
    assert decoded == walk(64)


# -- TieredSeries: reads -------------------------------------------------------


def test_range_stitches_old_blocks_and_head():
    series = TieredSeries(capacity=100, block_size=16)
    pairs = walk(230)
    for offset in range(0, len(pairs), 9):  # force a part-evicted old side
        series.append_many(pairs[offset:offset + 9])
    retained = pairs[-100:]
    t0, t1 = retained[3][0], retained[-3][0]
    expected = [p for p in retained if t0 <= p[0] < t1]
    assert series.range(t0, t1) == expected
    assert series.range(t1, t0) == []


def test_range_skips_blocks_outside_window():
    stats = BlockStats()
    series = TieredSeries(capacity=10_000, block_size=16, stats=stats)
    series.append_many(walk(160))
    series.range(1000.0, 1008.0)  # only the first block overlaps
    assert stats.blocks_considered == 10
    assert stats.blocks_skipped == 9
    assert stats.block_skip_rate == pytest.approx(0.9)


def test_tail_and_latest():
    series = TieredSeries(capacity=10_000, block_size=16)
    pairs = walk(100)
    series.append_many(pairs)
    assert series.latest() == pairs[-1]
    assert series.tail(3) == pairs[-3:]
    assert series.tail(50) == pairs[-50:]  # crosses into sealed blocks
    assert series.tail(0) == []
    assert TieredSeries().latest() is None


def test_aggregate_matches_raw_fold():
    series = TieredSeries(capacity=10_000, block_size=16)
    pairs = walk(200)
    series.append_many(pairs)
    t0, t1 = pairs[10][0], pairs[150][0]
    expected = fold_summary(fold_values(v for t, v in pairs if t0 <= t < t1))
    got = series.aggregate(t0, t1)
    assert got["count"] == expected["count"]
    assert got["min"] == expected["min"] and got["max"] == expected["max"]
    assert got["sum"] == pytest.approx(expected["total"])
    assert got["mean"] == pytest.approx(expected["mean"])


def test_aggregate_uses_summaries_for_covered_blocks():
    stats = BlockStats()
    series = TieredSeries(capacity=10_000, block_size=16, stats=stats)
    pairs = walk(160)
    series.append_many(pairs)
    series.aggregate(pairs[0][0], pairs[-1][0] + 1.0)
    assert stats.summary_answers == 10
    assert stats.blocks_decoded == 0


# -- stats & persistence -------------------------------------------------------


def test_stats_accounting_balances():
    stats = BlockStats()
    series = TieredSeries(capacity=50, block_size=16, stats=stats)
    series.append_many(walk(173))
    mem = series.memory_stats()
    assert stats.head_points == mem["head_points"]
    assert stats.block_bytes == mem["block_bytes"]
    assert stats.sealed_points == mem["sealed_points"]
    assert stats.compression_ratio > 1.0
    series.detach_stats()
    assert stats.head_points == 0
    assert stats.block_bytes == 0
    assert stats.sealed_points == 0
    assert series.stats is None
    series.detach_stats()  # idempotent


def test_document_roundtrip_preserves_pairs_and_tiers():
    series = TieredSeries(capacity=100, block_size=16)
    pairs = walk(230)
    for offset in range(0, len(pairs), 9):
        series.append_many(pairs[offset:offset + 9])
    doc = series.to_document()
    restored = TieredSeries.from_document(doc)
    assert restored.all_pairs() == series.all_pairs()
    assert restored.capacity == series.capacity
    assert restored.block_size == series.block_size
    # Appends keep working after a re-open, and eviction still honours
    # capacity exactly.
    restored.append_many(walk(30, t0=9000.0))
    assert len(restored) == 100


def test_document_restore_registers_stats():
    series = TieredSeries(capacity=100, block_size=16)
    series.append_many(walk(80))
    stats = BlockStats()
    restored = TieredSeries.from_document(series.to_document(), stats)
    mem = restored.memory_stats()
    assert stats.head_points == mem["head_points"]
    assert stats.sealed_points == mem["sealed_points"]
    assert stats.block_bytes == mem["block_bytes"]


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        TieredSeries(capacity=0)
    with pytest.raises(ValueError):
        TieredSeries(block_size=-1)

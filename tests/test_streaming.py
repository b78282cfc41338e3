from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from nullstream.algorithms import ProjectionSeparator, proj_state_bits
from nullstream.errors import BudgetViolation, NullstreamError, ValidationError
from nullstream.instances import gen_lsp_margin
from nullstream.reductions import ReductionConfig, anv_via_lsp
from nullstream.streaming import (
    STEP_BLOCK,
    BitState,
    Layout,
    Message,
    OnePassAlgorithm,
    Protocol,
    SharedRandomness,
    _advance,
    f64,
    one_pass_to_protocol,
    run_one_pass,
    run_one_pass_stats,
    run_protocol,
    shuffle,
    uint,
)


class Counting(OnePassAlgorithm):
    """Stores a 64-bit counter; output is the number of samples seen."""

    LAYOUT = Layout(n=uint(64))

    def update(self, i, sample, state, shared):
        self.LAYOUT.write(state, "n", int(self.LAYOUT.read(state.payload, "n")[0]) + 1)
        return state

    def finalize(self, state, shared):
        return int(self.LAYOUT.read(state.payload, "n")[0])


class StateStasher(OnePassAlgorithm):
    """Cheater: keeps the running total as an attribute bolted onto the state
    object instead of in the payload."""

    def update(self, i, sample, state, shared):
        state.hidden = getattr(state, "hidden", 0) + sample
        return state

    def finalize(self, state, shared):
        return getattr(state, "hidden", None)


class SelfStasher(OnePassAlgorithm):
    """Cheater: accumulates on the algorithm object itself."""

    def __init__(self):
        self.total = 0

    def update(self, i, sample, state, shared):
        self.total += sample
        return state

    def finalize(self, state, shared):
        return self.total


def test_bitstate_shape_and_trailing_bits():
    s = BitState(12)
    assert s.payload == bytearray(2) and isinstance(s.payload, bytearray)
    with pytest.raises(ValidationError):
        BitState(12, bytes([0x00, 0x0F]))  # bits 12..15 set
    BitState(12, bytes([0xFF, 0xF0]))  # fine: only the first 12 bits used
    with pytest.raises(ValidationError):
        BitState(16, bytes(1))


def test_bitstate_refuses_a_budget_past_the_address_space():
    # bytearray raises OverflowError for a size past sys.maxsize before it
    # allocates anything; the state refuses it as bad input
    with pytest.raises(ValidationError, match="does not fit in this process's memory"):
        BitState(99999999999999999999999)


def test_bitstate_pack_budget():
    layout = Layout(a=uint(8), b=uint(8))
    s = BitState(64)
    layout.write(s, "a", 1)
    layout.write(s, "b", 2)
    assert s.used_bits == 16
    assert s.payload[:2] == b"\x01\x02" and s.payload[2:] == bytes(6)
    with pytest.raises(BudgetViolation):
        layout.write(BitState(8), "a", 1)


class Flagged(OnePassAlgorithm):
    """Writes a 12-bit layout and returns the state: no other call."""

    LAYOUT = Layout(flag=uint(3), n=uint(9))

    def update(self, i, sample, state, shared):
        self.LAYOUT.write(state, "n", i)
        return state

    def finalize(self, state, shared):
        return int(self.LAYOUT.read(state.payload, "n")[0])


def test_layout_write_declares_its_bits():
    out, stats = run_one_pass_stats(Flagged(), range(5), 40, seed=0)
    assert out == 5
    assert stats.max_used_bits == Flagged.LAYOUT.nbits == 12


def test_layout_write_checks_budget_not_buffer():
    # BitState(12) has a 2-byte buffer that holds 16 bits, but its budget is 12
    layout = Layout(a=uint(8), b=uint(8))
    s = BitState(12)
    with pytest.raises(BudgetViolation):
        layout.write(s, "a", 1)
    assert s.payload == bytearray(2) and s.used_bits == 0


def test_shared_randomness_deterministic_and_bounded():
    a = SharedRandomness(12345)
    b = SharedRandomness(12345)
    for i in [0, 1, 7, 1000, 123456789]:
        v = a.values(i, 1)[0]
        assert v == b.values(i, 1)[0]
        assert 0.0 <= v < 1.0
    assert a.values(0, 1)[0] != a.values(1, 1)[0]
    assert SharedRandomness(1).values(0, 1)[0] != SharedRandomness(2).values(0, 1)[0]
    assert a.values(5, 0).shape == (0,)
    with pytest.raises(ValidationError, match="index"):
        a.values(-1, 1)
    with pytest.raises(ValidationError, match="count"):
        a.values(0, -1)


def test_shared_randomness_bulk_matches_single():
    # values(i, 1)[0] is the first word of Philox step i scaled by 2^-53;
    # the literals are Generator(Philox(key=seed) advanced by i).random()
    pinned = {
        (0, 0): "0x1.7a5d3204726c0p-7",
        (12345, 7): "0x1.59811cbda0c30p-1",
        (2**63 + 5, 1000): "0x1.2c8bbd42c2684p-3",
        (99, 123456789): "0x1.db0228689ecaep-1",
    }
    for (seed, i), want in pinned.items():
        assert SharedRandomness(seed).values(i, 1)[0].hex() == want
    # the same draws as later elements of one bulk draw
    assert SharedRandomness(12345).values(0, 8)[7].hex() == pinned[12345, 7]
    assert SharedRandomness(2**63 + 5).values(990, 20)[10].hex() == pinned[2**63 + 5, 1000]
    assert shuffle(range(20), seed=5) == [17, 2, 18, 9, 5, 19, 8, 12, 7, 16, 11, 3, 10, 6, 1, 13, 0, 15, 4, 14]


def _uncached_values(seed, index, count):
    # the reference draw: one fresh Philox advanced to index
    bg = Philox(key=seed)
    bg.advance(index)
    return (bg.random_raw(4 * count)[::4] >> 11) * 2.0**-53


# a stream served from cached 1024-value blocks would slip near their edges
# and on draws longer than a block, so the draws probe there
BLOCK = 1024
NEAR_BLOCK_EDGES = st.builds(
    lambda k, offset: max(0, k * BLOCK + offset), st.integers(0, 4), st.integers(-3, 3)
)
STREAM_INDICES = st.one_of(NEAR_BLOCK_EDGES, st.integers(0, 2**40))


@settings(deadline=None)
@given(
    seed=st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    warm=STREAM_INDICES,
    index=STREAM_INDICES,
    count=st.integers(1, BLOCK + 100),
)
def test_shared_values_match_an_uncached_draw(seed, warm, index, count):
    # whatever drew before it, a draw inside one block, across a boundary or
    # longer than a block equals a fresh Philox's
    shared = SharedRandomness(seed)
    shared.values(warm, 1)
    want = _uncached_values(seed, index, count).tobytes()
    got = shared.values(index, count)
    assert got.tobytes() == want
    got[:] = -1.0  # the caller owns the array it gets
    assert shared.values(index, count).tobytes() == want


def test_shared_randomness_roughly_uniform():
    sr = SharedRandomness(7)
    u = sr.values(0, 1000)
    assert abs(u.mean() - 0.5) < 0.05
    assert 0.25 < np.var(u) / (1 / 12) < 4


def test_shared_randomness_substreams():
    sr = SharedRandomness(11)
    g1 = sr.generator("proj", 3)
    g2 = sr.generator("proj", 3)
    g3 = sr.generator("proj", 4)
    x = g1.standard_normal(8)
    assert np.array_equal(x, g2.standard_normal(8))
    assert not np.array_equal(x, g3.standard_normal(8))


def test_counting_run():
    out, stats = run_one_pass_stats(Counting(), list(range(100)), 64, seed=0)
    assert out == 100
    assert stats.steps == 100
    assert stats.max_used_bits == 64


def test_budget_violation_small_budget():
    with pytest.raises(BudgetViolation):
        run_one_pass(Counting(), [1, 2, 3], 8, seed=0)


def test_capacity_change_rejected():
    class Grower(OnePassAlgorithm):
        def update(self, i, sample, state, shared):
            state.capacity_bits += 8
            return state

        def finalize(self, state, shared):
            return None

    with pytest.raises(BudgetViolation):
        run_one_pass(Grower(), [1], 8, seed=0)


def test_shuffle_small_cases():
    assert shuffle([42], seed=3) == [42]
    items = list(range(20))
    out = shuffle(items, seed=5)
    assert sorted(out) == items
    assert shuffle(items, seed=5) == out


def test_shuffle_uniform_over_three_elements():
    counts = Counter()
    for t in range(60000):
        counts[tuple(shuffle([0, 1, 2], seed=t))] += 1
    assert len(counts) == 6
    for perm, n in counts.items():
        assert abs(n - 10000) <= 400, (perm, n)


def test_run_protocol_trivial_echo():
    p = Protocol(send=lambda z1, b, sh: Message(0, b""), output=lambda z2, m, b, sh: z2)
    t = run_protocol(p, None, 42, 8, seed=1)
    assert t.output == 42
    assert t.message.nbits == 0
    assert run_protocol(p, None, 42, 8, seed=1) == t


def test_run_protocol_budget_enforced():
    p = Protocol(send=lambda z1, b, sh: Message(16, bytes(2)), output=lambda z2, m, b, sh: 0)
    with pytest.raises(BudgetViolation):
        run_protocol(p, None, None, 8, seed=0)


def test_simulation_matches_one_pass_counting():
    samples = list(range(100))
    direct = run_one_pass(Counting(), samples, 64, seed=9)
    proto = one_pass_to_protocol(Counting(), 50)
    t = run_protocol(proto, samples[:50], samples[50:], 64, seed=9)
    assert t.output == direct == 100
    assert t.message.nbits == 64


def test_simulation_split_zero_sends_initial_state():
    proto = one_pass_to_protocol(Counting(), 0)
    t = run_protocol(proto, [], list(range(7)), 64, seed=2)
    assert t.message.payload == bytes(8)
    assert t.output == 7


def test_simulation_wrong_party1_size():
    proto = one_pass_to_protocol(Counting(), 3)
    with pytest.raises(ValidationError):
        run_protocol(proto, [1, 2], [3], 64, seed=0)


def test_state_stashing_defeated_by_runner():
    # BitState has __slots__: the state object has no room for a stash
    with pytest.raises(AttributeError):
        run_one_pass(StateStasher(), [3, 4, 5], 8, seed=0)


class Returns(OnePassAlgorithm):
    """Runs edit(state) at every step and returns what it returns."""

    def __init__(self, edit):
        self.edit = edit

    def update(self, i, sample, state, shared):
        return self.edit(state)

    def finalize(self, state, shared):
        return bytes(state.payload)


def test_runner_rejects_a_grown_or_replaced_payload():
    def grow(state):
        state.payload.append(0)
        return state

    def swap(state):
        state.payload = bytearray(len(state.payload))
        return state

    for edit in (grow, swap):
        with pytest.raises(BudgetViolation):
            run_one_pass(Returns(edit), [1], 16, seed=0)


def test_runner_rejects_a_bit_past_the_budget():
    def spill(state):
        state.payload[-1] |= 0x01  # bit 15 of a 12-bit state
        return state

    with pytest.raises(ValidationError):
        run_one_pass(Returns(spill), [1], 12, seed=0)


def test_runner_rejects_a_fresh_state():
    with pytest.raises(BudgetViolation):
        run_one_pass(Returns(lambda state: BitState(state.capacity_bits)), [1], 8, seed=0)


def test_self_stashing_defeated_by_protocol_split():
    samples = [3, 4, 5, 6]
    direct = run_one_pass(SelfStasher(), samples, 8, seed=0)
    assert direct == 18  # in-process object persistence; the runner cannot see it
    proto = one_pass_to_protocol(SelfStasher(), 2)
    t = run_protocol(proto, samples[:2], samples[2:], 8, seed=0)
    assert t.output != direct  # party 2's fresh copy never saw the first half


# ---------------------------------------------------------------------------
# the block contract: prepare sees runs aligned at multiples of STEP_BLOCK,
# and a prepared value depends on its own sample and index only


def _split_run(make, samples, budget, seed, split):
    """(final payload, outcome) of a run split after sample `split`: party 1
    and party 2 are fresh algorithms, as in the protocol simulation, and
    share only the payload bytes.  The outcome is the output's bytes, or the
    type and message of the NullstreamError finalize raised, so a refusal
    must be the same at every split too.  split = 0 is the one-pass run."""
    first = make()
    state = _advance(first, samples[:split], BitState(budget), SharedRandomness(seed), 1)
    second = make()
    shared = SharedRandomness(seed)
    state = _advance(second, samples[split:], BitState(budget, state.payload), shared, split + 1)
    try:
        outcome = np.asarray(second.finalize(state, shared)).tobytes()
    except NullstreamError as e:
        outcome = (type(e), str(e))
    return bytes(state.payload), outcome


class PrepareLog(Counting):
    """Counting, with a log of the (first index, length) of every run that
    prepare is handed."""

    def __init__(self):
        self.runs = []

    def prepare(self, first_index, samples, shared):
        self.runs.append((first_index, len(samples)))
        return samples


def test_runner_prepares_runs_aligned_at_step_block():
    # the product shape, and so the raw float64 state pins, follow the block
    assert STEP_BLOCK == 64
    n, split = 150, 100
    one_pass = PrepareLog()
    _advance(one_pass, range(n), BitState(64), SharedRandomness(0), 1)
    assert one_pass.runs == [(1, 64), (65, 64), (129, 22)]
    party1, party2 = PrepareLog(), PrepareLog()
    _advance(party1, range(split), BitState(64), SharedRandomness(0), 1)
    _advance(party2, range(split, n), BitState(64), SharedRandomness(0), split + 1)
    assert party1.runs == [(1, 64), (65, 36)]
    # a resumed party's first run is the one that starts off a block edge
    assert party2.runs == [(101, 28), (129, 22)]


def test_runner_rejects_a_prepare_that_drops_a_value():
    class Short(Counting):
        def prepare(self, first_index, samples, shared):
            return samples[1:]

    with pytest.raises(ValidationError, match="prepare gave 2 values for 3 samples"):
        run_one_pass(Short(), [1, 2, 3], 64, seed=0)


class LeakyMean(OnePassAlgorithm):
    """Planted control: prepare adds its run's mean to every value, so a
    prepared value depends on the other samples of its run; update stores
    the running sum of squares as a float64."""

    LAYOUT = Layout(total=f64())

    def prepare(self, first_index, samples, shared):
        mean = float(np.mean(samples)) if samples else 0.0
        return [z + mean for z in samples]

    def update(self, i, sample, state, shared):
        self.LAYOUT.write(state, "total", self.LAYOUT.read(state.payload, "total") + sample * sample)
        return state

    def finalize(self, state, shared):
        return self.LAYOUT.read(state.payload, "total")


def test_split_equality_catches_a_prepare_that_reads_its_run():
    samples = [float(k * k % 17) for k in range(150)]
    one_pass = _split_run(LeakyMean, samples, 64, 0, 0)
    # at a block edge every run is the same as in the one-pass run ...
    assert _split_run(LeakyMean, samples, 64, 0, 64) == one_pass
    # ... mid-block, the split cuts a run in two and the means change
    assert _split_run(LeakyMean, samples, 64, 0, 30) != one_pass


def _proj(quant_bits):
    return lambda: ProjectionSeparator(dprime=8, subsample_size=40, quant_bits=quant_bits, seed=4)


@pytest.mark.parametrize("quant_bits", [0, 16])
@pytest.mark.parametrize("route", ["direct", "anv-via-lsp"])
def test_projection_separator_split_equals_one_pass_at_every_index(route, quant_bits):
    n = 150  # the runs cross block edges at steps 64 and 128 (128 and 256 inside the reduction)
    if route == "direct":
        make = _proj(quant_bits)
        samples = gen_lsp_margin(16, n, 0.3, seed=7).points()
    else:
        cfg = ReductionConfig(c4=0.3, cf=0.2)
        make = lambda: anv_via_lsp(_proj(quant_bits)(), cfg)  # noqa: E731
        # orthogonal to e1 and short, so the shifted pairs separate by a wide margin
        rows = 0.01 * np.random.default_rng(7).standard_normal((n, 16))
        rows[:, 0] = 0.0
        samples = list(rows)
    budget = proj_state_bits(8, 40, quant_bits)
    one_pass = _split_run(make, samples, budget, 5, 0)
    assert one_pass[0] != bytes(len(one_pass[0]))
    for split in range(n + 1):
        assert _split_run(make, samples, budget, 5, split) == one_pass, split


@pytest.mark.parametrize("quant_bits", [0, 16])
def test_projection_separator_one_sample_prepare_equals_the_runners(quant_bits):
    samples = gen_lsp_margin(16, 150, 0.3, seed=8).points()
    seen = []

    class Recorder(OnePassAlgorithm):
        inner = _proj(quant_bits)()

        def prepare(self, first_index, run, shared):
            values = self.inner.prepare(first_index, run, shared)
            seen.extend(values)
            return values

        def update(self, i, sample, state, shared):
            return self.inner.update(i, sample, state, shared)

    _advance(Recorder(), samples, BitState(proj_state_bits(8, 40, quant_bits)), SharedRandomness(5), 1)
    assert len(seen) == len(samples)
    alone = _proj(quant_bits)()
    for i, (sample, (_, _, coords, keep, slot)) in enumerate(zip(samples, seen), start=1):
        # every row position of a block, 0 to STEP_BLOCK - 1, is visited
        ((_, _, single, *draws),) = alone.prepare(i, [sample], SharedRandomness(5))
        assert single.tobytes() == coords.tobytes(), i
        assert draws == [keep, slot] == SharedRandomness(5).values(2 * i, 2).tolist(), i


# Layout.write and Layout.read are the package's bit writer and reader.

# uint runs reach past the few elements Layout.write packs with Python ints,
# so both its int and its numpy write paths are drawn
FIELD_SPECS = st.lists(
    st.one_of(
        st.builds(uint, st.integers(1, 64), st.integers(0, 12)),
        st.builds(f64, st.integers(0, 3)),
    ),
    min_size=1,
    max_size=6,
)


def _layout(specs):
    return Layout(**{"f%d" % k: spec for k, spec in enumerate(specs)})


def _state(buf):
    # a BitState whose payload is buf itself, with room for all of its bits
    state = BitState(max(1, 8 * len(buf)))
    state.payload = buf
    return state


def _values(data, width, is_float, count):
    # a list of Python numbers or the same values as a float64 or uint64 array
    element = st.floats(width=64) if is_float else st.integers(0, 2**width - 1)
    values = data.draw(st.lists(element, min_size=count, max_size=count))
    if data.draw(st.booleans()):
        return np.array(values, dtype=float if is_float else np.uint64)
    return values


def _same(got, want, is_float):
    if is_float:
        return np.asarray(got, dtype="<f8").tobytes() == np.asarray(want, dtype="<f8").tobytes()
    return [int(v) for v in got] == [int(v) for v in want]


@given(FIELD_SPECS, st.data())
def test_bit_writer_reader_roundtrip(specs, data):
    # read returns what write stored, for whole fields and any run inside one
    layout = _layout(specs)
    buf = bytearray((layout.nbits + 7) // 8)
    state = _state(buf)
    stored = {}
    for name, (_, width, length, is_float) in layout.fields.items():
        values = _values(data, width, is_float, length)
        layout.write(state, name, values)
        stored[name] = list(values)
    for name, (_, width, length, is_float) in layout.fields.items():
        start = data.draw(st.integers(0, length))
        count = data.draw(st.integers(0, length - start))
        new = _values(data, width, is_float, count)
        layout.write(state, name, new, start=start)
        stored[name][start : start + count] = new
        assert _same(layout.read(buf, name, start, count), new, is_float)
    for name, (_, _, _, is_float) in layout.fields.items():
        assert _same(layout.read(buf, name), stored[name], is_float)


@given(FIELD_SPECS, st.data())
def test_bit_writer_alignment_guard(specs, data):
    # a write at any bit offset leaves every bit outside its elements as it was
    layout = _layout(specs)
    nbytes = (layout.nbits + 7) // 8
    buf = bytearray(data.draw(st.binary(min_size=nbytes, max_size=nbytes)))
    state = _state(buf)
    before = np.unpackbits(np.frombuffer(bytes(buf), dtype=np.uint8))
    name = data.draw(st.sampled_from(sorted(layout.fields)))
    offset, width, length, is_float = layout.fields[name]
    start = data.draw(st.integers(0, length))
    values = _values(data, width, is_float, data.draw(st.integers(0, length - start)))
    layout.write(state, name, values, start=start)
    after = np.unpackbits(np.frombuffer(bytes(buf), dtype=np.uint8))
    lo, hi = offset + start * width, offset + (start + len(values)) * width
    assert np.array_equal(before[:lo], after[:lo])
    assert np.array_equal(before[hi:], after[hi:])


def test_bit_writer_floats_roundtrip():
    layout = Layout(head=uint(32), flag=uint(3), vals=f64(4))
    assert layout.nbits == 32 + 3 + 4 * 64
    arr = np.array([1.5, -2.25, 1e-300, 3.14159])
    buf = bytearray((layout.nbits + 7) // 8)
    state = _state(buf)
    layout.write(state, "head", 7)
    layout.write(state, "flag", 5)
    layout.write(state, "vals", arr)
    assert layout.read(buf, "head")[0] == 7
    assert layout.read(buf, "flag")[0] == 5
    assert np.array_equal(layout.read(buf, "vals"), arr)
    assert np.array_equal(layout.read(buf, "vals", 1, 2), arr[1:3])


@pytest.mark.parametrize("lead", [0, 3])
@pytest.mark.parametrize("width", range(8, 65, 8))
def test_whole_byte_fields_are_msb_first(width, lead):
    # whole-byte widths skip the bit re-alignment on a run that starts on a
    # byte and take it on one that does not; pin their bytes, at an aligned
    # and an unaligned offset, against the values' own bit strings, for a few
    # Python ints and for an array too long for the int path
    few = [2**width - 1, 1, 0x0123456789ABCDEF >> (64 - width)]
    for values, given in ((few, few), (few * 4, np.array(few * 4, dtype=np.uint64))):
        layout = Layout(pad=uint(1, lead), vals=uint(width, len(values)))
        bits = "0" * lead + "".join(format(v, "0%db" % width) for v in values)
        bits += "0" * (-len(bits) % 8)
        buf = bytearray(len(bits) // 8)
        state = _state(buf)
        layout.write(state, "vals", given)
        assert bytes(buf) == int(bits, 2).to_bytes(len(buf), "big")
        assert [int(v) for v in layout.read(buf, "vals")] == values


def test_layout_values_must_fit():
    # Python ints, arrays and long lists take different paths; each checks
    layout = Layout(a=uint(3), b=uint(64, 2), c=f64(1), many=uint(3, 9))
    buf = bytearray((layout.nbits + 7) // 8)
    state = _state(buf)
    layout.write(state, "b", [2**64 - 1, 0])
    for name, bad in (
        ("a", 8),
        ("a", -1),
        ("b", 2**64),
        ("b", [-1, 2**63]),
        ("a", np.array([8])),
        ("b", np.array([-1, 1])),
        ("many", [1] * 8 + [8]),
        ("many", [1] * 8 + [-1]),
    ):
        with pytest.raises(BudgetViolation):
            layout.write(state, name, bad)
    for one in (1, np.array([1], dtype=np.uint64)):
        with pytest.raises(BudgetViolation):
            layout.write(_state(bytearray(1)), "b", one)  # beyond the end of the state
    for three in ([1, 2, 3], np.array([1, 2, 3])):
        with pytest.raises(ValidationError):
            layout.write(state, "b", three)  # more elements than the field has
    with pytest.raises(BudgetViolation):
        layout.read(bytearray(1), "b", 0, 1)
    with pytest.raises(ValidationError):
        layout.read(buf, "b", 1, 2)
    assert list(layout.read(buf, "b")) == [2**64 - 1, 0]

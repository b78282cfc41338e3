"""One-pass algorithms with enforced bit budgets, and their reduction to
one-way communication protocols.

The model: an algorithm sees samples one at a time and may carry exactly b
bits between steps.  The carrier is a BitState: the runner makes one per run,
every update edits its payload bytearray in place and returns it, and after
each step the runner checks that the buffer kept its identity, its size and
its zero bits past b.  A BitState has no room for anything else (__slots__);
what an algorithm keeps on itself is exposed by the protocol split, whose two
parties run separate copies and share only the message bytes.
Transient working memory inside a single update call is unbounded (the model
places no limit on per-step computation), and is documented as such: memory
accounting here means the between-steps configuration only.

The runner walks the stream in runs that end at multiples of STEP_BLOCK,
counted in 1-based step index, and lets an algorithm prepare each run before
its updates: the per-sample work that reads no state, such as projecting a
block of samples with one matrix product.  A prepared value is a pure
function of its sample, its index, the shared randomness and the
configuration, so holding it tells the algorithm nothing the stream it is
handed does not; it is never part of the b bits.

Randomness is shared and counter-addressable: both parties of a protocol (or
the update and finalize phases of a one-pass run) may read the same indexed
uniform values, or derive named bulk substreams, without any coordination.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from numpy.random import Generator, Philox

from .errors import BudgetViolation, ValidationError

_U64 = (1 << 64) - 1

# Layout.write packs integer runs of up to _FEW elements given as Python ints
# with int arithmetic, which costs less than numpy's dispatch on so few
# values; reads always go through numpy.  Fields of these widths move with
# one big-endian numpy cast
_FEW = 8
_WHOLE_BYTES = (8, 16, 32, 64)

# the runner's runs end at multiples of this step index, in a one-pass run
# and in either party of a protocol split alike
STEP_BLOCK = 64


def _check_trailing_zero(payload: bytes, nbits: int):
    r = nbits % 8
    if r and payload and payload[(nbits // 8)] & (0xFF >> r):
        raise ValidationError("bits beyond the declared length must be zero")


class BitState:
    """A memory configuration: b bits, stored MSB-first in a bytearray of
    ceil(b/8) bytes whose bits past b are zero.

    BitState(b) is the all-zero state; BitState(b, payload) copies payload.
    used_bits is accounting metadata, 0 on a new state and raised to the
    writing layout's nbits by every Layout.write(); the runner records it
    after each step and then clears it to None, so it never carries
    information from one step to the next.
    """

    __slots__ = ("capacity_bits", "payload", "used_bits")

    def __init__(self, capacity_bits: int, payload=None):
        if capacity_bits < 1:
            raise ValidationError("capacity must be at least 1 bit")
        want = (capacity_bits + 7) // 8
        # a size past the address space is bad input; a failed allocation is not
        try:
            payload = bytearray(want) if payload is None else bytearray(payload)
        except OverflowError:
            raise ValidationError(
                "a %d-bit state does not fit in this process's memory" % capacity_bits
            ) from None
        if len(payload) != want:
            raise ValidationError(
                "payload is %d bytes, capacity %d bits needs %d"
                % (len(payload), capacity_bits, want)
            )
        _check_trailing_zero(payload, capacity_bits)
        self.capacity_bits = capacity_bits
        self.payload = payload
        self.used_bits = 0


class SharedRandomness:
    """Counter-addressable uniform stream plus named bulk substreams.

    Its only state is the seed, so any copy of it, in either party of a
    protocol, reads the same values.  values(i, n) is a pure function of
    (seed, i, n): Philox keyed by the seed, advanced to position i, whose
    counter steps make four 64-bit words each; value k of the draw is the
    first word of step i + k scaled the way Generator.random() scales it, so
    values(i, n)[k] == values(i + k, 1)[0].  generator(*tags) derives an
    independent numpy Generator keyed by (seed, tags) for bulk draws
    (projection matrices, inserted-equation positions, ...); distinct tags
    give independent streams.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64

    def values(self, index: int, count: int) -> np.ndarray:
        """The count values from stream position index on, as a new array."""
        if index < 0:
            raise ValidationError("stream index must be nonnegative")
        if count < 0:
            raise ValidationError("draw count must be nonnegative")
        bg = Philox(key=self.seed)
        bg.advance(int(index))
        return (bg.random_raw(4 * count)[::4] >> 11) * 2.0**-53

    def generator(self, *tags) -> Generator:
        key = []
        for t in tags:
            if isinstance(t, (int, np.integer)):
                key.append(int(t) & _U64)
            elif isinstance(t, str):
                h = hashlib.sha256(t.encode("utf-8")).digest()
                key.append(int.from_bytes(h[:8], "big"))
            else:
                raise ValidationError("substream tags must be ints or strings")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(key))
        return np.random.default_rng(ss)


class OnePassAlgorithm:
    """Behavioral interface for streaming algorithms.

    update(i, sample, state, shared) -> state: edit state.payload in place
    (same bytearray, same length, bits past capacity_bits left zero),
    normally through Layout.write, which also declares the bits used, and
    return the same state object; finalize(state, shared) -> output.  Step
    indices are 1-based.  Anything an implementation wants to remember
    between samples must live in state.payload; the protocol split carries
    nothing else.  Caches that are pure functions of (shared randomness,
    configuration) are fine since they carry no sample information.

    prepare(first_index, samples, shared) -> list is optional.  The runner
    calls it once per run of samples, indexed first_index, ..., and then
    calls update with the k-th returned value in place of the k-th sample.
    A run ends at a multiple of STEP_BLOCK, at the end of the samples, or
    just before a sample holding a NaN or an infinity, which is never
    prepared.  That value must be a pure function of that sample, its index,
    shared and the configuration: never of the other samples of the run,
    and never of the state, which prepare does not see.  This is honest
    because the runner already holds the whole stream, so f(x_j) tells the
    algorithm nothing that x_j does not, and the values are dropped once the
    run's updates are done: none of it is part of the b bits.  Without a
    prepare, update receives the samples as they are.  A wrapper that feeds
    an inner algorithm prepares the inner samples through prepared().
    """

    def update(self, i: int, sample, state: BitState, shared: SharedRandomness) -> BitState:
        raise NotImplementedError

    def finalize(self, state: BitState, shared: SharedRandomness):
        raise NotImplementedError


@dataclass
class RunStats:
    steps: int = 0
    max_used_bits: int | None = None

    def record(self, state: BitState):
        self.steps += 1
        if state.used_bits is not None:
            self.max_used_bits = max(state.used_bits, self.max_used_bits or 0)


def _finite(sample) -> bool:
    """False when sample, a number, a vector or a (vector, label) pair, holds
    a NaN or an infinity.  Parts that are not numbers are left for the
    algorithm to judge."""
    parts = sample if isinstance(sample, (tuple, list)) and len(sample) == 2 else (sample,)
    for part in parts:
        if isinstance(part, float):  # np.float64 too
            finite = math.isfinite(part)
        elif isinstance(part, int):
            continue
        else:
            try:
                finite = np.logical_and.reduce(np.isfinite(part), axis=None)
            except (TypeError, ValueError):
                continue
        if not finite:
            return False
    return True


def prepared(alg, first_index: int, samples: list, shared: SharedRandomness) -> list:
    """alg.prepare(first_index, samples, shared) when alg has a prepare, else
    samples unchanged: the values alg.update takes for these samples."""
    prepare = getattr(alg, "prepare", None)
    return samples if prepare is None else prepare(first_index, samples, shared)


def _advance(alg, samples, state, shared, first_index, stats=None):
    capacity, payload, nbytes = state.capacity_bits, state.payload, len(state.payload)
    stream = iter(samples)
    index = first_index
    while run := list(itertools.islice(stream, STEP_BLOCK - (index - 1) % STEP_BLOCK)):
        finite = next((k for k, z in enumerate(run) if not _finite(z)), len(run))
        values = prepared(alg, index, run[:finite], shared)
        if len(values) != finite:
            raise ValidationError("prepare gave %d values for %d samples" % (len(values), finite))
        for value in values:
            if alg.update(index, value, state, shared) is not state:
                raise BudgetViolation("update must edit the run's state in place and return it")
            if state.capacity_bits != capacity or state.payload is not payload or len(payload) != nbytes:
                raise BudgetViolation("update replaced or resized the %d-bit state buffer" % capacity)
            _check_trailing_zero(payload, capacity)
            if stats is not None:
                stats.record(state)
            state.used_bits = None
            index += 1
        if finite < len(run):
            raise ValidationError("sample %d holds a NaN or an infinity" % index)
    return state


def run_one_pass(alg: OnePassAlgorithm, samples, budget_bits: int, seed: int):
    out, _ = run_one_pass_stats(alg, samples, budget_bits, seed)
    return out


def run_one_pass_stats(alg: OnePassAlgorithm, samples, budget_bits: int, seed: int):
    """Like run_one_pass but also returns RunStats (peak declared state bits)."""
    shared = SharedRandomness(seed)
    stats = RunStats()
    state = _advance(alg, samples, BitState(budget_bits), shared, first_index=1, stats=stats)
    return alg.finalize(state, shared), stats


def shuffle(samples, seed: int) -> list:
    """Uniform random permutation, Fisher-Yates driven by the seeded stream."""
    out = list(samples)
    n = len(out)
    if n < 2:
        return out
    u = SharedRandomness(seed).values(0, n - 1)
    for i in range(n - 1, 0, -1):
        j = int(u[n - 1 - i] * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class Message:
    """One-way protocol message: nbits bits, MSB-first, trailing bits zero."""

    nbits: int
    payload: bytes

    def __post_init__(self):
        if self.nbits < 0:
            raise ValidationError("message length cannot be negative")
        if len(self.payload) != (self.nbits + 7) // 8:
            raise ValidationError("message payload length does not match nbits")
        _check_trailing_zero(self.payload, self.nbits)
        object.__setattr__(self, "payload", bytes(self.payload))


@dataclass(frozen=True)
class Protocol:
    """One-way protocol: party 1 compresses its input into a message, party 2
    produces the output from its own input, the message, and shared randomness.

    send(input1, budget_bits, shared) -> Message
    output(input2, message, budget_bits, shared) -> value
    """

    send: Callable[[Any, int, SharedRandomness], Message]
    output: Callable[[Any, Message, int, SharedRandomness], Any]


@dataclass(frozen=True)
class ProtocolTranscript:
    message: Message
    output: Any
    budget_bits: int


def run_protocol(p: Protocol, input1, input2, budget_bits: int, seed: int) -> ProtocolTranscript:
    if budget_bits < 1:
        raise ValidationError("budget must be at least 1 bit")
    shared = SharedRandomness(seed)
    msg = p.send(input1, budget_bits, shared)
    if msg.nbits > budget_bits:
        raise BudgetViolation("party 1 sent %d bits, budget %d" % (msg.nbits, budget_bits))
    out = p.output(input2, msg, budget_bits, shared)
    return ProtocolTranscript(message=msg, output=out, budget_bits=budget_bits)


def one_pass_to_protocol(alg: OnePassAlgorithm, split_index: int) -> Protocol:
    """The memory-to-communication simulation.

    Party 1 runs the one-pass algorithm over the first split_index samples and
    sends the final memory configuration (exactly the budget, by definition).
    Party 2 resumes from that configuration on the remaining samples and
    finalizes.  Each party runs a fresh copy of the algorithm object, so the
    only channel between them is the message plus shared randomness; for every
    honest algorithm the output equals run_one_pass on the concatenated
    stream, bit for bit.
    """
    if split_index < 0:
        raise ValidationError("split index cannot be negative")
    pristine = copy.deepcopy(alg)

    def send(input1, budget_bits, shared):
        if len(input1) != split_index:
            raise ValidationError(
                "party 1 holds %d samples, split index is %d" % (len(input1), split_index)
            )
        a = copy.deepcopy(pristine)
        state = _advance(a, input1, BitState(budget_bits), shared, first_index=1)
        return Message(nbits=budget_bits, payload=state.payload)

    def output(input2, message, budget_bits, shared):
        if message.nbits != budget_bits:
            raise ValidationError("simulation expects a full-state message")
        a = copy.deepcopy(pristine)
        state = BitState(budget_bits, message.payload)
        state = _advance(a, input2, state, shared, first_index=split_index + 1)
        return a.finalize(state, shared)

    return Protocol(send=send, output=output)


def uint(width: int, count: int = 1) -> tuple:
    """Layout field spec: count unsigned integers of width bits, MSB-first."""
    if not 1 <= width <= 64:
        raise ValidationError("uint fields are 1 to 64 bits wide, not %d" % width)
    return width, count, False


def f64(count: int = 1) -> tuple:
    """Layout field spec: count float64 values as little-endian bytes."""
    return 64, count, True


class Layout:
    """A state format: named fields packed back to back from bit 0.

    Layout(header=uint(32, 2), vectors=f64(n)) puts two 32-bit counters at
    bits 0..63 and n float64 values after them; nbits is the total, which is
    the budget a state in this format needs.  write and read address any run
    of elements of one field at any bit offset and touch only the bytes those
    elements span.  write takes the run's BitState, checks nbits against its
    capacity and declares nbits as used, so an update that writes through a
    layout needs no other call for its bits to be counted; read takes the
    bare payload, since reads are not accounted.

    Every path stores the same bits.  A write of at most _FEW Python ints (a
    header [count, d], a label bit) packs them with Python int arithmetic.
    Fields 8, 16, 32 or 64 bits wide are read with one big-endian numpy cast
    and written with one straight into the payload when the run starts on a
    byte; every other write and read is re-aligned bit by bit in numpy.
    """

    __slots__ = ("fields", "nbits")

    def __init__(self, **specs):
        self.fields = {}
        offset = 0
        for name, (width, count, is_float) in specs.items():
            if count < 0:
                raise ValidationError("field %s has negative length %d" % (name, count))
            self.fields[name] = (offset, width, count, is_float)
            offset += width * count
        self.nbits = offset

    def _span(self, buf, name, start, count):
        offset, width, length, _ = self.fields[name]
        if start < 0 or count < 0 or start + count > length:
            raise ValidationError(
                "elements %d..%d lie outside field %s of %d" % (start, start + count, name, length)
            )
        lo = offset + start * width
        if lo + count * width > 8 * len(buf):
            raise BudgetViolation(
                "field %s needs bit %d, the state has %d" % (name, lo + count * width, 8 * len(buf))
            )
        return lo

    def write(self, state: BitState, name: str, values, start: int = 0):
        """Store values (one number or a sequence) as elements start,
        start+1, ... of the field in state.payload, and declare the layout's
        nbits as used by this step.

        Raises BudgetViolation, before any byte changes, when the layout does
        not fit state.capacity_bits; and when a value does not fit the
        field's width.
        """
        if self.nbits > state.capacity_bits:
            raise BudgetViolation(
                "state needs %d bits, budget is %d" % (self.nbits, state.capacity_bits)
            )
        state.used_bits = max(state.used_bits or 0, self.nbits)
        buf = state.payload
        _, width, _, is_float = self.fields[name]
        if is_float:
            raw = np.asarray(values, dtype="<f8").tobytes()
            count = len(raw) // 8
            lo = self._span(buf, name, start, count)
        else:
            few = values if isinstance(values, (list, tuple)) else (values,)
            if len(few) <= _FEW:
                # a few Python ints are packed into one int without numpy;
                # a negative value shifts to -1, so it fails the fit test too.
                # A value that is not a Python int sends the run to numpy,
                # which checks types before any fit
                packed = over = 0
                for v in few:
                    if not isinstance(v, int):
                        break
                    packed = packed << width | v
                    over |= v >> width
                else:
                    if over:
                        raise BudgetViolation(
                            "a value of field %s does not fit in %d bits" % (name, width)
                        )
                    lo = self._span(buf, name, start, len(few))
                    _put_int(buf, lo, packed, len(few) * width)
                    return
            ints = np.asarray(values).reshape(-1)
            if ints.dtype.kind not in "ui":  # Python ints past the int64 range
                ints = np.asarray(values, dtype=object).reshape(-1)
                if not all(isinstance(v, int) for v in ints):
                    raise ValidationError("field %s holds integers" % name)
            # the reduce ufuncs directly, not ndarray.max/min's Python wrappers
            if ints.size and (
                int(np.maximum.reduce(ints)) >> width
                or ints.dtype.kind != "u" and np.minimum.reduce(ints) < 0
            ):
                raise BudgetViolation("a value of field %s does not fit in %d bits" % (name, width))
            count = ints.size
            lo = self._span(buf, name, start, count)
            if width in _WHOLE_BYTES and lo % 8 == 0:
                # cast straight into the payload's bytes, with no copy between
                np.frombuffer(buf, ">u%d" % (width // 8), count, lo // 8)[...] = ints
                return
            bits = np.unpackbits(ints.astype(">u8").view(np.uint8)).reshape(-1, 64)
            raw = np.packbits(bits[:, 64 - width :]).tobytes()
        _put(buf, lo, raw, count * width)

    def read(self, payload, name: str, start: int = 0, count: int | None = None) -> np.ndarray:
        """Elements start .. start+count-1 of the field (default: to its end),
        as float64 or uint64."""
        _, width, length, is_float = self.fields[name]
        if count is None:
            count = length - start
        lo = self._span(payload, name, start, count)
        if is_float:
            return np.frombuffer(_get(payload, lo, count * width), dtype="<f8").copy()
        raw = _get(payload, lo, count * width)
        if width in _WHOLE_BYTES:
            return np.frombuffer(raw, dtype=">u%d" % (width // 8)).astype(np.uint64)
        # right-align each element in whole bytes, then in a big-endian u64
        nbytes = (width + 7) // 8
        columns = np.frombuffer(raw, dtype=np.uint8)
        if width % 8:
            bits = np.unpackbits(columns, count=count * width)
            padded = np.zeros((count, 8 * nbytes), dtype=np.uint8)
            padded[:, 8 * nbytes - width :] = bits.reshape(count, width)
            columns = np.packbits(padded)
        words = np.zeros((count, 8), dtype=np.uint8)
        words[:, 8 - nbytes :] = columns.reshape(count, nbytes)
        return words.view(">u8").reshape(count).astype(np.uint64)


def _put(buf: bytearray, lo: int, raw: bytes, nbits: int):
    """Store the first nbits of raw (MSB-first) at bit lo of buf."""
    first, shift = divmod(lo, 8)
    if shift == 0 and nbits % 8 == 0:
        buf[first : first + nbits // 8] = raw
    else:
        _put_int(buf, lo, int.from_bytes(raw, "big") >> (8 * len(raw) - nbits), nbits)


def _put_int(buf: bytearray, lo: int, value: int, nbits: int):
    """Store the nbits-bit integer value at bit lo of buf, MSB-first."""
    first = lo // 8
    end = (lo + nbits + 7) // 8
    pad = 8 * end - lo - nbits  # bits after the span in its last byte
    mask = ((1 << nbits) - 1) << pad
    old = int.from_bytes(buf[first:end], "big")
    buf[first:end] = ((old & ~mask) | (value << pad)).to_bytes(end - first, "big")


def _get(payload, lo: int, nbits: int) -> bytes:
    """nbits of payload from bit lo, MSB-first, zero-padded to whole bytes."""
    first, shift = divmod(lo, 8)
    if shift == 0 and nbits % 8 == 0:
        return bytes(payload[first : first + nbits // 8])
    nbytes = (nbits + 7) // 8
    return (_get_int(payload, lo, nbits) << (8 * nbytes - nbits)).to_bytes(nbytes, "big")


def _get_int(payload, lo: int, nbits: int) -> int:
    """The nbits-bit integer stored MSB-first at bit lo of payload."""
    first = lo // 8
    end = (lo + nbits + 7) // 8
    pad = 8 * end - lo - nbits  # bits after the span in its last byte
    return (int.from_bytes(payload[first:end], "big") >> pad) & ((1 << nbits) - 1)

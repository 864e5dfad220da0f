"""Haar-uniform pure states on a constrained subspace, with reproducible streams.

Sampling draws a vector of i.i.d. standard complex Gaussians on the subspace
coordinates and normalizes it, which is exactly uniform on the unit sphere.
Every trial is tied to a ``(seed, index)`` pair; results depend only on that
pair, never on scheduling, so parallel runs reproduce serial ones bit for bit.

The stream of a pair is defined as ``np.random.default_rng([seed, index])``
(``SampleStream.rng``).  Its ``SeedSequence`` hash costs more than a small
trial's draw, so ``stream_generators`` hashes a range of indices at once:
``seed_words`` runs numpy's hash on uint32 arrays over the indices, and each
index gets a new PCG64 that seeds itself from its row of words.  That covers
seed and index below 2**32, where each is a single entropy word; other pairs
go through ``SampleStream.rng``.

States are drawn one way: ``sample_states`` yields a range of indices as
stacks of coordinates and reduced states.  ``normalize_draws`` normalizes a
stack and ``StateReducer`` reduces it, each with one call per quantity for
the whole stack and the same arithmetic for a row wherever it sits in it.
Both forms of subspace are reduced on one path, one product per occupied
system block, over the blocks of ``ConstraintSubspace.block_slabs``, the
list the trial kernel's eigensolves read too; only the slabs' fill is by form.
``sample_coords`` (also the redraw of a short row) and
``reduced_state_from_coords`` are the same code on a stack of one, so a
state's bits do not depend on how many are drawn together.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import ShapeMismatchError
from .linalg import add_product
from .subspace import ConstraintSubspace

#: Gaussian draws with norm below this are redrawn (probability ~ 0).
_RESAMPLE_NORM = 1e-100

# numpy's SeedSequence hash constants (pool of 4 uint32 words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

#: Seeds and indices below this are one ``SeedSequence`` entropy word each.
_WORD = 1 << 32

#: Indices hashed per ``seed_words`` call in ``stream_generators``; the
#: array passes cost about the same for 1 index as for a few hundred.
_SEED_BATCH = 256

#: Entries per dot product in ``normalize_draws``: OpenBLAS threads longer ones.
_DOT_PIECE = 10_000

#: States per stack of ``sample_states``, fewer when its buffers would pass
#: ``_CHUNK_BYTES``.  A state's bits do not depend on the stack size.
_CHUNK = 64
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SampleStream:
    """Counter-based randomness stream; (seed, index) fully determines all draws."""

    seed: int
    index: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.index < 0:
            raise ValueError("seed and index must be non-negative")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index])


def seed_words(seed: int, start: int, count: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)``, the words PCG64
    seeds ``default_rng([seed, i])`` from, as row i - start for each index
    ``i`` in ``start .. start + count - 1``; seed and indices lie in [0, 2**32).

    Each pool word of numpy's hash is a uint32 array over the indices; the
    evolving hash constants are the same for every index and stay Python ints.
    """
    if not (0 <= seed < _WORD and 0 <= start and start + count <= _WORD):
        raise ValueError("seed and indices must lie in [0, 2**32)")
    hash_const, hash_mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * hash_mult) & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    zeros = np.zeros(count, dtype=np.uint32)
    entropy = [zeros + seed, np.arange(start, start + count, dtype=np.uint32), zeros, zeros]
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)

    # generate_state runs the same mix over the pool, with its own constants
    hash_const, hash_mult = _INIT_B, _MULT_B
    words = [hashmix(pool[k % _POOL_SIZE]) for k in range(2 * _POOL_SIZE)]
    # as generate_state(4, uint64): the uint32 words' little-endian bytes, read as uint64
    return np.stack(words, axis=1).astype("<u4", copy=False).view(np.uint64)


def stream_generators(seed: int, start: int, count: int) -> Iterator[np.random.Generator]:
    """For each index ``i`` in ``start .. start + count - 1``, a new generator
    in the state of ``SampleStream(seed, i).rng()``.

    Below 2**32 the seed words are hashed ``_SEED_BATCH`` indices at a time,
    so a long range holds no per-index state beyond one batch.
    """
    # importing it with the module would load numpy.random with the package
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A row of ``seed_words`` for PCG64's one call, ``generate_state(4,
        np.uint64)``; a subclass, since isinstance on a registered class
        misses the ABC cache each time."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    seed = operator.index(seed)
    in_range = 0 <= seed < _WORD and 0 <= start
    fast_end = max(start, min(start + count, _WORD)) if in_range else start
    for lo in range(start, fast_end, _SEED_BATCH):
        for words in seed_words(seed, lo, min(_SEED_BATCH, fast_end - lo)):
            yield np.random.Generator(np.random.PCG64(SeedWords(words)))
    for i in range(fast_end, start + count):
        yield SampleStream(seed, i).rng()


def normalize_draws(normals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unit coordinate vectors of a stack of Gaussian draws, written to ``out``.

    ``normals[j]`` holds row j's real parts, then its imaginary parts, as one
    ``standard_normal((2, d))`` fills them; ``out[j]`` becomes that complex
    vector times the reciprocal of its norm.  The norm is sqrt(re.re +
    im.im), summed in index order over pieces of ``_DOT_PIECE`` entries, each
    a ``(1, d) @ (d, 1)`` matmul on the strided ``.real``/``.imag`` views, so
    a row's bits depend on neither the stack nor the BLAS thread count.
    Returns the rows whose norm is at most ``_RESAMPLE_NORM``; those are left
    unscaled, to redraw.
    """
    parts = out.view(float)
    parts[:, 0::2], parts[:, 1::2] = normals[:, 0], normals[:, 1]
    norms = np.zeros((out.shape[0], 1))
    for lo in range(0, out.shape[1], _DOT_PIECE):
        for part in (out.real[:, lo:lo + _DOT_PIECE], out.imag[:, lo:lo + _DOT_PIECE]):
            norms += np.matmul(part[:, None, :], part[:, :, None])[:, 0]
    np.sqrt(norms, out=norms)
    redraw = np.flatnonzero(norms <= _RESAMPLE_NORM)
    if redraw.size:
        norms[redraw] = 1.0
    # what complex / real computes, but for the sign of a zero part
    np.multiply(parts, 1.0 / norms, out=parts)
    return redraw


def sample_coords(dim_subspace: int, stream: SampleStream) -> np.ndarray:
    """Haar-uniform unit vector of subspace coordinates drawn from ``stream``.

    Real parts are the first ``dim_subspace`` normals, imaginary parts the
    next ones; a draw of (near) zero norm is redrawn from the same stream.
    This is ``normalize_draws`` on a stack of one.
    """
    rng = stream.rng()
    normals = np.empty((1, 2, dim_subspace))
    coords = np.empty((1, dim_subspace), dtype=complex)
    while True:
        rng.standard_normal(out=normals[0])
        if not normalize_draws(normals, coords).size:
            return coords[0]


class StateReducer:
    """Reduced system states of stacks of up to ``chunk`` coordinate vectors.

    The one place that tells index form from dense form, and only to fill
    each state's matrix M, laid out as ``sub.block_slabs``: in index form by
    one gather of its coordinates, in dense form by one product lifting the
    stack by the basis (a stack of one is lifted as two rows: numpy sends one
    row to gemv, which rounds differently).  Then, for each occupied block
    in the list, rho is the block's (size, groups) slab of M times its
    conjugate transpose, one stacked ``add_product`` per block, matrix by
    matrix, from reused work rows; the block products lie end to end in
    ``products`` and one gather puts them into rho in computational order,
    zero off the blocks, unused system indices included.  So a
    state's bits depend neither on the stack nor on the BLAS thread count.
    """

    def __init__(self, sub: ConstraintSubspace, chunk: int) -> None:
        width, products = StateReducer.sizes(sub)
        self.products = np.empty((chunk, products), dtype=complex)
        self._blocks, self._source, self._holes, self._gather = sub.block_slabs
        if self._source is None:
            self._basis = sub.basis
            self._pad = np.zeros((2, sub.dim_subspace), dtype=complex)
            chunk = max(chunk, 2)
        # M, then conj(M), per state
        self.work = np.empty((2, chunk, width), dtype=complex)

    @staticmethod
    def sizes(sub: ConstraintSubspace) -> tuple[int, int]:
        """Complex entries per state of ``sub`` of the matrix M, its slabs end
        to end (d_R for a spin chain, d_S d_E in dense form), and of the
        packed block products, with their zero in index form."""
        blocks, _, _, gather = sub.block_slabs
        return blocks[-1][2], int(gather.max()) + 1

    def __call__(self, coords: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rho of each row of ``coords``, written to ``out`` (c, d_S, d_S)."""
        c = coords.shape[0]
        m, m_conj = self.work[0, :c], self.work[1, :c]
        if self._source is None:
            if c == 1:
                self._pad[0], coords = coords[0], self._pad
            lift, part = self.work[:, : coords.shape[0]]
            lift.fill(0)
            add_product(lift, coords, self._basis, part)
        else:
            # every index is in range; "clip" spares the buffered copy of "raise"
            np.take(coords, self._source, axis=1, out=m, mode="clip")
            m[:, self._holes] = 0
        np.conjugate(m, out=m_conj)
        products = self.products[:c]
        products.fill(0)  # add_product adds to it; its last column is rho off the blocks
        flat = out.reshape(c, out.shape[1] * out.shape[2])  # also for c = 0
        for idx, lo, hi, groups, pos in self._blocks:
            size = idx.size
            slab = m[:, lo:hi].reshape(c, size, groups)
            slab_conj = m_conj[:, lo:hi].reshape(c, size, groups).transpose(0, 2, 1)
            block = products[:, pos : pos + size * size].reshape(c, size, size)
            # out holds each piece's product until the gather
            add_product(block, slab, slab_conj, flat[:, : size * size].reshape(c, size, size))
        np.take(products, self._gather, axis=1, out=flat, mode="clip")
        return out


def sample_states(
    sub: ConstraintSubspace, seed: int, start: int, count: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Haar-uniform states ``start .. start + count - 1`` on ``sub``, a stack at a time.

    Yields ``(offset, coords, rho)``: the coordinates (c, d_R) and reduced
    system states (c, d_S, d_S) of states ``start + offset`` to ``start +
    offset + c - 1``.  State i draws from ``SampleStream(seed, i)``'s stream,
    as ``stream_generators`` builds it; a row of (near) zero norm continues
    its own stream, as in ``sample_coords``.  A stack holds ``_CHUNK``
    states, fewer when the buffers would pass ``_CHUNK_BYTES``: per state,
    2 d_R normals, d_R coordinates, M and conj(M), the packed products and
    rho.  The budget covers these buffers only; what a caller computes from
    a stack (the trial kernel's |rho|^2, Weyl gather and product, and block
    copies for ``eigvalsh``) comes on top.  ``coords`` and ``rho`` are views
    of buffers that the next stack overwrites, so copy what must outlive it;
    the caller may write to them.
    """
    d_s, d_r = sub.shape.dim_system, sub.dim_subspace
    width, products = StateReducer.sizes(sub)
    per_state = 16 * (2 * d_r + 2 * width + products + d_s * d_s)
    chunk = max(1, min(_CHUNK, _CHUNK_BYTES // per_state, count))
    normals = np.empty((chunk, 2, d_r))
    coords = np.empty((chunk, d_r), dtype=complex)
    reduce = StateReducer(sub, chunk)
    states = np.empty((chunk, d_s, d_s), dtype=complex)
    rngs = stream_generators(seed, start, count)
    for lo in range(0, count, chunk):
        c = min(chunk, count - lo)
        for j, rng in enumerate(islice(rngs, c)):
            rng.standard_normal(out=normals[j])
        for j in normalize_draws(normals[:c], coords[:c]):
            coords[j] = sample_coords(d_r, SampleStream(seed, start + lo + j))
        yield lo, coords[:c], reduce(coords[:c], states[:c])


def reduced_state_from_coords(sub: ConstraintSubspace, coords: np.ndarray) -> np.ndarray:
    """Environment trace of |phi><phi| for phi given by subspace coordinates.

    This is ``StateReducer`` on a stack of one.  On a dense basis it costs a
    two-row product, which packs the whole basis; lift many states as one
    stack through ``sample_states`` or ``StateReducer`` instead.
    """
    coords = np.asarray(coords, dtype=complex)
    if coords.shape != (sub.dim_subspace,):
        raise ShapeMismatchError("coordinate vector has wrong length")
    d_s = sub.shape.dim_system
    out = np.empty((1, d_s, d_s), dtype=complex)
    return StateReducer(sub, 1)(coords[None], out)[0]

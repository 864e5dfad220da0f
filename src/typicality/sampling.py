"""Haar-uniform pure states on a constrained subspace, with reproducible streams.

Sampling draws a vector of i.i.d. standard complex Gaussians on the subspace
coordinates and normalizes it, which is exactly uniform on the unit sphere.
Every trial is tied to a ``(seed, index)`` pair; results depend only on that
pair, never on scheduling, so parallel runs reproduce serial ones bit for bit.

The stream of a pair is defined as ``np.random.default_rng([seed, index])``
(``SampleStream.rng``).  Building that generator costs more than a small
trial's draw, so ``stream_generators`` computes the same PCG64 states for a
range of indices at once: numpy's ``SeedSequence`` hash runs on uint32 arrays
over the indices, then PCG64's seeding steps run on Python ints, and one
reused generator takes each state in turn.  That covers seed and index below
2**32, where each is a single entropy word; other pairs go through
``SampleStream.rng``.

A stack of draws is normalized by ``normalize_draws`` and reduced to system
states by ``StateReducer``, each with one call per quantity for the whole
stack and the same arithmetic for a row wherever it sits in it.
``draw_coords`` and ``reduced_state_from_coords`` are the same code on a stack
of one, so a trial's bits do not depend on how many are drawn together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ShapeMismatchError, SubspaceMismatchError
from .subspace import ConstraintSubspace

#: Gaussian draws with norm below this are redrawn (probability ~ 0).
_RESAMPLE_NORM = 1e-100

# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's
# 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: Seeds and indices below this are one ``SeedSequence`` entropy word each.
_WORD = 1 << 32

#: Indices seeded per ``pcg64_states`` call in ``stream_generators``; the
#: array passes cost about the same for 1 index as for a few hundred.
_SEED_BATCH = 256


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


@dataclass(frozen=True)
class PureState:
    """Normalized state of the composite, constrained to a subspace."""

    subspace: ConstraintSubspace
    coords: np.ndarray
    ambient: np.ndarray


def pcg64_states(seed: int, start: int, count: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng([seed, i])`` for each index
    ``i`` in ``start .. start + count - 1``.

    Seed and every index must lie in [0, 2**32).  This is numpy's
    ``SeedSequence([seed, i]).generate_state(4, uint64)`` with each pool word
    held as a uint32 array over the indices, followed by PCG64's ``srandom``.
    The evolving hash constants are the same for every index and stay masked
    Python ints.
    """
    if not (0 <= seed < _WORD and 0 <= start and start + count <= _WORD):
        raise ValueError("seed and indices must lie in [0, 2**32)")
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
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

    hash_const = _INIT_B
    words = []
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # generate_state(4, uint64) pairs the uint32 words little-endian
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * k] | (words[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = (((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT) + inc) & _MASK128
        states.append((state, inc))
    return states


def stream_generators(seed: int, start: int, count: int) -> Iterator[np.random.Generator]:
    """For each index ``i`` in ``start .. start + count - 1``, a generator in
    the state of ``SampleStream(seed, i).rng()``.

    Below 2**32 the generators are one reused object whose state is reset
    for each index, so draw from each before taking the next.  Seeding runs
    ``_SEED_BATCH`` indices at a time, so a long range holds no per-index
    state beyond one batch.
    """
    # a numpy integer seed would change the dtype of the hash arrays
    in_range = isinstance(seed, int) and 0 <= seed < _WORD and 0 <= start
    fast_end = max(start, min(start + count, _WORD)) if in_range else start
    if fast_end > start:
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        for lo in range(start, fast_end, _SEED_BATCH):
            for state, inc in pcg64_states(seed, lo, min(_SEED_BATCH, fast_end - lo)):
                bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                yield rng
    for i in range(fast_end, start + count):
        yield SampleStream(seed, i).rng()


def normalize_draws(normals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unit coordinate vectors of a stack of Gaussian draws, written to ``out``.

    ``normals[j]`` holds row j's real parts, then its imaginary parts, as one
    ``standard_normal((2, d))`` fills them; ``out[j]`` becomes that complex
    vector over its norm.  The norm is sqrt(re.re + im.im), each dot product a
    ``(1, d) @ (d, 1)`` matmul on the strided ``.real``/``.imag`` views, the
    same BLAS call ``np.linalg.norm`` makes, so a row's bits do not depend on
    the stack.  Returns the rows whose norm is at most ``_RESAMPLE_NORM``;
    those are left undivided, for the caller to redraw.
    """
    np.multiply(1j, normals[:, 1], out=out)
    np.add(normals[:, 0], out, out=out)
    re, im = out.real, out.imag
    norms = np.matmul(re[:, None, :], re[:, :, None])[:, 0]
    norms += np.matmul(im[:, None, :], im[:, :, None])[:, 0]
    np.sqrt(norms, out=norms)
    redraw = np.flatnonzero(norms <= _RESAMPLE_NORM)
    if redraw.size:
        norms[redraw] = 1.0
    np.divide(out, norms, out=out)
    return redraw


def draw_coords(rng: np.random.Generator, dim_subspace: int) -> np.ndarray:
    """Haar-uniform unit vector of subspace coordinates drawn from ``rng``.

    Real parts are the first ``dim_subspace`` normals, imaginary parts the
    next ones; a draw of (near) zero norm is redrawn from the same stream.
    This is ``normalize_draws`` on a stack of one.
    """
    normals = np.empty((1, 2, dim_subspace))
    coords = np.empty((1, dim_subspace), dtype=complex)
    while True:
        rng.standard_normal(out=normals[0])
        if not normalize_draws(normals, coords).size:
            return coords[0]


def sample_coords(dim_subspace: int, stream: SampleStream) -> np.ndarray:
    """Haar-uniform unit vector of subspace coordinates."""
    return draw_coords(stream.rng(), dim_subspace)


def sample_pure(sub: ConstraintSubspace, stream: SampleStream) -> PureState:
    """Draw a Haar-uniform pure state on ``sub``."""
    coords = sample_coords(sub.dim_subspace, stream)
    return PureState(subspace=sub, coords=coords, ambient=sub.embed(coords))


class StateReducer:
    """Reduced system states of stacks of up to ``chunk`` coordinate vectors.

    The one place that tells index form from dense form.  In index form the
    amplitudes of a state are scattered into an (environment group, system)
    matrix M, and rho = M^T conj(M); basis vectors in different groups do not
    interfere.  A dense state is lifted to the composite space, viewed as a
    (system, environment) matrix M, and rho = M M^H.  Either way a call makes
    one stacked product, matrix by matrix, into reused work rows: a state's
    bits do not depend on the stack.
    """

    def __init__(self, sub: ConstraintSubspace, chunk: int) -> None:
        groups = sub.env_groups
        d_s = sub.shape.dim_system
        if groups is not None:
            group, sys_idx, n_groups = groups
            self._offsets = group * d_s + sys_idx
            self._matrix = (n_groups, d_s)
        else:
            self._offsets = None
            self._basis = sub.basis
            self._matrix = (d_s, sub.shape.dim_environment)
        # M, then conj(M), per state; index form only ever writes the same
        # offsets, so the rest stays zero from here on
        self.work = np.zeros((2, chunk, StateReducer.width(sub)), dtype=complex)

    @staticmethod
    def width(sub: ConstraintSubspace) -> int:
        """Complex entries of M for one state of ``sub``."""
        groups = sub.env_groups
        rows = sub.shape.dim_environment if groups is None else groups[2]
        return rows * sub.shape.dim_system

    def __call__(self, coords: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rho of each row of ``coords``, written to ``out`` (c, d_S, d_S)."""
        c = coords.shape[0]
        m, m_conj = self.work[0, :c], self.work[1, :c]
        if self._offsets is not None:
            m[:, self._offsets] = coords
        else:
            np.matmul(coords[:, None, :], self._basis, out=m[:, None, :])
        np.conjugate(m, out=m_conj)
        m, m_conj = m.reshape(c, *self._matrix), m_conj.reshape(c, *self._matrix)
        if self._offsets is not None:
            return np.matmul(m.transpose(0, 2, 1), m_conj, out=out)
        return np.matmul(m, m_conj.transpose(0, 2, 1), out=out)


def reduced_state_from_coords(sub: ConstraintSubspace, coords: np.ndarray) -> np.ndarray:
    """Environment trace of |phi><phi| for phi given by subspace coordinates.

    This is ``StateReducer`` on a stack of one.
    """
    coords = np.asarray(coords, dtype=complex)
    if coords.shape != (sub.dim_subspace,):
        raise ShapeMismatchError("coordinate vector has wrong length")
    d_s = sub.shape.dim_system
    out = np.empty((1, d_s, d_s), dtype=complex)
    return StateReducer(sub, 1)(coords[None], out)[0]


def reduced_state(phi: PureState, sub: ConstraintSubspace) -> np.ndarray:
    """Reduced system state of a sampled pure state.

    The state must have been drawn from ``sub`` (or an equal subspace).
    """
    if phi.subspace is not sub and not phi.subspace.equals(sub):
        raise SubspaceMismatchError("state belongs to a different subspace")
    return reduced_state_from_coords(sub, phi.coords)

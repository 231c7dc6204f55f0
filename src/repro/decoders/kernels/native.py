"""Native C min-sum kernel (``native`` backend, the default).

:class:`NativeKernel` is a :class:`~repro.decoders.kernels.fused
.FusedKernel` whose multi-iteration fusion API (``fused_start`` /
``fused_run`` and the ``fused_marg`` / ``fused_hard`` / ``fused_flips``
views) runs in C: one ``fused_run`` call decodes a whole chunk,
checking convergence after each iteration and freezing a row -- or its
whole ``stop_groups`` group, first success wins -- at the iteration it
converged.  The generic per-step protocol (Mem-BP and sum-product
hooks, dtypes other than float32/float64) stays the inherited numpy
code.

Lanes.  The C code advances four rows at once, one per lane of a SIMD
vector, so the messages, priors and syndromes live in ``(blocks, k,
4)`` buffers.  Each thread owns a pool of ``max(1, ceil(largest group /
4))`` blocks; a frozen group's lanes are refilled at once with the next
whole group of the chunk, read from the row-major inputs
``fused_start`` recorded.  Each lane keeps its own iteration count, so
a row's damping and flip counting follow its own iterations.  The
row-major ``fused_marg`` / ``fused_hard`` / ``fused_flips`` views are
written once per row, when its group leaves its lanes.

Results are bit-identical to ``fused``, marginals included, whatever a
row's lane, block, neighbours or load time: the C code keeps the
working dtype,
and its per-variable sums follow numpy's ``add.reduceat`` order (first
element, then numpy's pairwise sum of the rest) in every lane.
``tests/decoders/test_native_kernel.py`` pins that order against numpy.

Build and load.  ``native_kernel.c`` is compiled on first use with
``$CC`` (default ``cc``) and ``-O2 -fPIC -shared -ffp-contract=off
-pthread`` (no ``-march``: the lanes need only the baseline vector
unit), then opened through cffi's ABI mode (``ffi.dlopen``); no Python
headers are needed.  The shared object is cached in
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``, or the system
temp directory when that is not writable) under a name keyed on the
source, the compiler command and flags, and the machine.  A build is
written to a temporary file and renamed into place, so concurrent
processes may race on a cold cache safely.  The outcome -- library or
error -- is memoised once per process; without cffi or a working
compiler the backend reports itself unavailable and the default falls
back to ``fused``.

Threads.  cffi releases the GIL for the duration of each C call, and
one ``fused_run`` call may spread the chunk's stop groups over up to
:data:`~repro.decoders.kernels.THREAD_BUDGET` POSIX threads (never more
than there are groups), read at every call.  The threads start inside
the C call and are joined before it returns, so none outlives it (and
none is alive when a worker process forks); a thread that fails to
start only leaves its share to the others.  On Linux a new thread
starts on a CPU other than the caller's (otherwise it waits for the
load balancer on the caller's CPU).  Small calls stay on the calling
thread.  Each thread has its own lane pool and scratch block, and every
row's arithmetic is the same on any thread, so results are
bit-identical for any budget.  The budget defaults to 1 and only the
offline engine raises it: see :func:`~repro.decoders.kernels.use_threads`.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from typing import Any

import numpy as np

from repro.decoders.kernels.base import THREAD_BUDGET, usable_cpus
from repro.decoders.kernels.fused import FusedKernel
from repro.decoders.tanner import TannerEdges

__all__ = ["NativeKernel", "load_library"]

_SOURCE = Path(__file__).with_name("native_kernel.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
#: dtypes the C entry points are compiled for (``bp_run_f32``/``_f64``),
#: each with the integer type of its lane masks (hard decisions,
#: syndromes, flip counts).
_MASKS = {
    np.dtype(np.float32): np.dtype(np.int32),
    np.dtype(np.float64): np.dtype(np.int64),
}
#: Rows per lane block: ``LANES`` in ``native_kernel.c`` (``bp_lanes()``).
_LANES = 4

# The build outcome, memoised once per process: ``(ffi, lib)`` or the
# error text.  Deliberately outside every cache that tests clear.
_LIBRARY: Any = None
_LIBRARY_ERROR: str | None = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    preferred = Path(base) / "repro"
    try:
        preferred.mkdir(parents=True, exist_ok=True)
        if os.access(preferred, os.W_OK):
            return preferred
    except OSError:
        pass
    return Path(tempfile.gettempdir())


def _build() -> Path:
    """Compile the kernel into the cache (if absent); return its path."""
    command = [*shlex.split(os.environ.get("CC") or "cc"), *_FLAGS]
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update("\0".join(command).encode())
    key.update(f"\0{platform.machine()}\0{sys.platform}".encode())
    target = _cache_dir() / f"repro_native_bp-{key.hexdigest()[:24]}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [*command, "-o", tmp, str(_SOURCE)],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip() or proc.stdout.strip()
            raise OSError(
                f"C compiler failed: {shlex.join(command)} exited "
                f"{proc.returncode}" + (f": {detail}" if detail else "")
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load_library() -> Any:
    """``(ffi, lib)`` for the compiled kernel, building it on first use.

    Raises ``ImportError`` carrying the reason (cffi missing, compiler
    missing or failing) when the kernel cannot be built or opened; the
    outcome is memoised, so later calls answer at once.
    """
    global _LIBRARY, _LIBRARY_ERROR
    if _LIBRARY is None and _LIBRARY_ERROR is None:
        try:
            from cffi import FFI

            ffi = FFI()
            ffi.cdef(re.search(
                r"/\* BEGIN ABI.*?\*/(.*)/\* END ABI \*/",
                _SOURCE.read_text(), re.DOTALL,
            ).group(1))
            lib = ffi.dlopen(str(_build()))
            if lib.bp_lanes() != _LANES:
                raise ImportError(
                    f"native kernel has {lib.bp_lanes()} lanes, "
                    f"expected {_LANES}"
                )
            NativeKernel.runtime_version = (
                f"C, {ffi.string(lib.bp_compiler()).decode()}, "
                f"{_LANES} lanes, up to {usable_cpus()} threads"
            )
            _LIBRARY = (ffi, lib)
        except (ImportError, OSError, subprocess.SubprocessError) as exc:
            _LIBRARY_ERROR = f"{type(exc).__name__}: {exc}"
    if _LIBRARY is None:
        raise ImportError(_LIBRARY_ERROR)
    return _LIBRARY


def _pointer(ffi: Any, struct: Any, field: str, array: np.ndarray) -> Any:
    """``array``'s data as the C type of ``struct.field``.

    The pointer does not keep ``array`` alive: its owner must.
    """
    return ffi.cast(ffi.typeof(getattr(struct, field)), array.ctypes.data)


class _Graph:
    """int64 CSR index arrays of one Tanner graph plus their C view."""

    def __init__(self, ffi: Any, edges: TannerEdges) -> None:
        n_chk, n_act = edges.check_ids.size, edges.var_ids.size
        self.arrays = {
            name: np.ascontiguousarray(values, dtype=np.int64)
            for name, values in (
                ("chk_ptr", np.append(edges.check_starts[:n_chk],
                                      edges.n_edges)),
                ("edge_var", edges.edge_var),
                ("var_ptr", np.append(edges.var_starts[:n_act],
                                      edges.n_edges)),
                ("var_ids", edges.var_ids),
                ("var_pos", edges.from_var_order),
                ("var_edge", edges.to_var_order),
            )
        }
        self.c = ffi.new("bp_graph *", {
            "n_checks": n_chk, "n_vars": edges.n_vars,
            "n_active": n_act, "n_edges": edges.n_edges,
        })
        for name, values in self.arrays.items():
            setattr(self.c, name, _pointer(ffi, self.c, name, values))


# One _Graph per shared TannerEdges, built at the first fused_start on
# that graph (never at decoder construction).
_GRAPHS: "weakref.WeakKeyDictionary[TannerEdges, _Graph]" = (
    weakref.WeakKeyDictionary()
)


def _aligned_zeros(shape: tuple[int, ...], dtype: Any) -> np.ndarray:
    """``np.zeros`` whose data starts on a 64-byte boundary.

    The C kernel loads whole lane vectors, which need 16-byte alignment.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.zeros(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start: start + nbytes].view(dtype).reshape(shape)


class _State:
    """Fused-path chunk buffers and their C view.

    Row-major inputs and outputs hold ``cap`` rows: the syndromes of
    non-empty checks, feasibility and group ids in; ``marg``, ``hard``,
    ``flips``, ``conv`` and ``iterations`` out, written by the kernel.
    Lane buffers are ``(blocks, k, 4)``, ``blocks`` covering one lane
    pool per thread; they start zeroed, so an idle lane never computes
    on denormal garbage.  ``scratch`` has one block slice per thread.
    Pointers are bound once per allocation; ``fused_start`` only
    switches the per-chunk fields (prior rows, flips, groups, pool).
    """

    def __init__(
        self, ffi: Any, edges: TannerEdges, cap: int, blocks: int,
        dtype: np.dtype, n_alphas: int, threads: int,
    ) -> None:
        e, n, c = edges.n_edges, edges.n_vars, edges.check_ids.size
        mask = _MASKS[dtype]
        self.cap = cap
        self.blocks = blocks
        self.threads = threads
        self.v2c = _aligned_zeros((blocks, e, _LANES), dtype)
        self.lane_marg = _aligned_zeros((blocks, n, _LANES), dtype)
        self.lane_hard = _aligned_zeros((blocks, n, _LANES), mask)
        self.lane_flips = _aligned_zeros((blocks, n, _LANES), mask)
        self.prior = _aligned_zeros((blocks, n, _LANES), dtype)
        self.synd = _aligned_zeros((blocks, c, _LANES), mask)
        self.lane_row = np.empty((blocks, _LANES), np.int64)
        self.lane_iter = np.empty((blocks, _LANES), np.int64)
        self.lane_group = np.empty((blocks, _LANES), np.int64)
        self.scratch = _aligned_zeros((threads, e, _LANES), dtype)
        self.alphas = np.empty(n_alphas, dtype)
        self.synd_rows = np.empty((cap, c), np.uint8)
        self.feasible = np.empty(cap, bool)
        self.groups = np.empty(cap, np.int64)
        self.marg = np.empty((cap, n), dtype)
        self.hard = np.empty((cap, n), np.uint8)
        self.flips = np.empty((cap, n), np.int32)
        self.conv = np.empty(cap, bool)
        self.iterations = np.empty(cap, np.int64)
        self.c = ffi.new("bp_state *")
        for name in ("synd_rows", "feasible", "alphas", "prior", "synd",
                     "v2c", "lane_marg", "lane_hard", "lane_flips",
                     "lane_row", "lane_iter", "lane_group", "scratch",
                     "marg", "hard", "conv", "iterations"):
            setattr(self.c, name,
                    _pointer(ffi, self.c, name, getattr(self, name)))
        self.ptr = {
            name: _pointer(ffi, self.c, name, getattr(self, name))
            for name in ("flips", "groups")
        }


class NativeKernel(FusedKernel):
    """FusedKernel whose multi-iteration fusion API runs in C."""

    name = "native"
    supports_iteration_fusion = True
    runtime_version = "C (not built yet)"

    def __init__(self, edges, check_matrix, *, clamp, dtype):
        super().__init__(edges, check_matrix, clamp=clamp, dtype=dtype)
        # Other dtypes take the inherited per-step numpy path.
        self.supports_iteration_fusion = self.dtype in _MASKS
        self._graph: _Graph | None = None
        self._state: _State | None = None
        self._prior: np.ndarray | None = None   # prior rows of the chunk
        self._units = 0                         # stop groups of the chunk
        self._track = False

    def __getstate__(self):
        state = super().__getstate__()
        state.update(
            _graph=None, _state=None, _prior=None, _track=False
        )
        return state

    # -- multi-iteration fusion API -------------------------------------

    def fused_start(self, syndromes, prior, groups, alphas, track_flips):
        """Begin a chunk: syndromes, priors, stop groups and damping.

        ``prior`` is ``(1, n)`` or ``(batch, n)``; ``groups`` the
        chunk's ``stop_groups`` ids (rows of one group contiguous) or
        ``None``; ``alphas[i]`` the damping factor of iteration
        ``i + 1``.  The kernel reads all of them during ``fused_run``,
        as it loads each group into lanes.
        """
        edges = self.edges
        m = syndromes.shape[0]
        ffi, _ = load_library()
        if self._graph is None:
            self._graph = _GRAPHS.get(edges)
            if self._graph is None:
                self._graph = _GRAPHS[edges] = _Graph(ffi, edges)
        if groups is None:
            self._units, largest = m, 1
        else:
            bounds = np.flatnonzero(np.diff(groups)) + 1
            self._units = bounds.size + 1
            largest = int(np.diff(bounds, prepend=0, append=m).max())
        pool = -(-largest // _LANES)
        threads = min(THREAD_BUDGET.get(), self._units)
        st = self._state
        if (st is None or m > st.cap or threads * pool > st.blocks
                or len(alphas) > st.alphas.size or threads > st.threads):
            cap, blocks, n_alphas, n_threads = (
                (st.cap, st.blocks, st.alphas.size, st.threads) if st
                else (0, 0, 0, 1)
            )
            st = self._state = _State(
                ffi, edges, max(m, cap), max(threads * pool, blocks),
                self.dtype, max(len(alphas), n_alphas),
                max(threads, n_threads),
            )
        c = st.c

        syndromes.take(edges.check_ids, axis=1, out=st.synd_rows[:m])
        if edges.all_checks_nonempty:
            st.feasible[:m] = True
        else:
            empty_bits = syndromes[:, edges.empty_check_ids]
            np.logical_not(empty_bits.any(axis=1), out=st.feasible[:m])
        self._prior = np.ascontiguousarray(prior, dtype=self.dtype)
        c.prior_rows = ffi.cast("void *", self._prior.ctypes.data)
        c.prior_stride = 0 if prior.shape[0] == 1 else edges.n_vars
        c.pool = pool
        st.alphas[: len(alphas)] = alphas
        self._track = bool(track_flips)
        if self._track:
            c.flips = st.ptr["flips"]
        else:
            c.flips = ffi.NULL
        if groups is None:
            c.groups = ffi.NULL
        else:
            st.groups[:m] = groups
            c.groups = st.ptr["groups"]
        self._m = m

    def fused_run(self, max_iter):
        """Decode every row of the chunk, at most ``max_iter`` iterations.

        Returns ``(conv, iterations)`` views, valid until the next
        kernel call: whether each row's own syndrome was satisfied, and
        the iterations it ran (a group stopped by another row's success
        reports that iteration, unconverged).  The call may use up to
        :data:`THREAD_BUDGET` threads, one lane pool each, and never
        more than there are stop groups.
        """
        m = self._m
        st = self._state
        _, lib = load_library()
        run = lib.bp_run_f32 if self.dtype == np.float32 else lib.bp_run_f64
        threads = min(THREAD_BUDGET.get(), self._units,
                      st.blocks // st.c.pool, st.threads)
        run(self._graph.c, st.c, m, max_iter, self.clamp, threads)
        return st.conv[:m], st.iterations[:m]

    @property
    def fused_marg(self):
        return self._state.marg[: self._m]

    @property
    def fused_hard(self):
        return self._state.hard[: self._m]

    @property
    def fused_flips(self):
        return self._state.flips[: self._m] if self._track else None

"""Native C min-sum kernel (``native`` backend, the default).

:class:`NativeKernel` is a :class:`~repro.decoders.kernels.fused
.FusedKernel` whose multi-iteration fusion API (``fused_start`` /
``fused_run`` / ``fused_compact`` and the ``fused_marg`` /
``fused_hard`` / ``fused_flips`` views) runs in C: one call executes
many BP iterations over every live row of a chunk, checking convergence
after each iteration and freezing a row -- or its whole ``stop_groups``
group, first success wins -- at the iteration it converged.  The
generic per-step protocol (Mem-BP and sum-product hooks, dtypes other
than float32/float64) stays the inherited numpy code.

Results are bit-identical to ``fused``, marginals included
(``deterministic_sums = True``): the C code keeps the working dtype,
and its per-variable sums follow numpy's ``add.reduceat`` order
(first element, then numpy's pairwise sum of the rest).
``tests/decoders/test_native_kernel.py`` pins that order against numpy.

Build and load.  ``native_kernel.c`` is compiled on first use with
``$CC`` (default ``cc``) and ``-O2 -fPIC -shared -ffp-contract=off``,
then opened through cffi's ABI mode (``ffi.dlopen``); no Python
headers are needed.  The shared object is cached in
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``, or the system
temp directory when that is not writable) under a name keyed on the
source, the compiler command and flags, and the machine.  A build is
written to a temporary file and renamed into place, so concurrent
processes may race on a cold cache safely.  The outcome -- library or
error -- is memoised once per process; without cffi or a working
compiler the backend reports itself unavailable and the default falls
back to ``fused``.

The kernel is single-threaded and starts no threads or processes; cffi
releases the GIL for the duration of each C call.
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

from repro.decoders.kernels.fused import FusedKernel
from repro.decoders.tanner import TannerEdges

__all__ = ["NativeKernel", "load_library"]

_SOURCE = Path(__file__).with_name("native_kernel.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: dtypes the C entry points are compiled for (``bp_run_f32``/``_f64``).
_C_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

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
            NativeKernel.runtime_version = (
                f"C, {ffi.string(lib.bp_compiler()).decode()}, "
                f"single-threaded"
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


class _State:
    """Fused-path chunk buffers (capacity rows) and their C view.

    Pointers are bound once per allocation; ``fused_start`` only
    switches the per-chunk fields (prior, flips, groups) between them
    and ``NULL``.
    """

    def __init__(
        self, ffi: Any, edges: TannerEdges, cap: int, dtype: np.dtype,
        n_alphas: int,
    ) -> None:
        e, n, c = edges.n_edges, edges.n_vars, edges.check_ids.size
        self.cap = cap
        self.v2c = np.empty((cap, e), dtype)
        self.marg = np.empty((cap, n), dtype)
        self.scratch = np.empty(e, dtype)
        self.alphas = np.empty(n_alphas, dtype)
        self.prior = np.empty((cap, n), dtype)
        self.hard = np.empty((cap, n), np.uint8)
        self.flips = np.empty((cap, n), np.int32)
        self.synd = np.empty((cap, c), np.uint8)
        self.feasible = np.empty(cap, bool)
        self.groups = np.empty(cap, np.int64)
        self.conv = np.empty(cap, bool)
        self.frozen = np.empty(cap, bool)
        self.stop_rel = np.empty(cap, np.int64)
        self.keep = np.empty(cap, bool)
        self.c = ffi.new("bp_state *")
        for name in ("v2c", "marg", "scratch", "alphas", "hard", "synd",
                     "feasible", "conv", "frozen", "stop_rel"):
            setattr(self.c, name,
                    _pointer(ffi, self.c, name, getattr(self, name)))
        self.ptr = {
            name: _pointer(ffi, self.c, name, getattr(self, name))
            for name in ("prior", "flips", "groups")
        }
        self.ptr["keep"] = ffi.cast("uint8_t *", self.keep.ctypes.data)


class NativeKernel(FusedKernel):
    """FusedKernel whose multi-iteration fusion API runs in C."""

    name = "native"
    # The C sums reproduce add.reduceat's order bit for bit (REP102).
    deterministic_sums = True
    supports_iteration_fusion = True
    runtime_version = "C, single-threaded (not built yet)"

    def __init__(self, edges, check_matrix, *, clamp, dtype):
        super().__init__(edges, check_matrix, clamp=clamp, dtype=dtype)
        # Other dtypes take the inherited per-step numpy path.
        self.supports_iteration_fusion = self.dtype in _C_DTYPES
        self._graph: _Graph | None = None
        self._state: _State | None = None
        self._prior: np.ndarray | None = None   # shared prior in use
        self._track = False

    def __getstate__(self):
        state = super().__getstate__()
        state.update(
            _graph=None, _state=None, _prior=None, _track=False
        )
        return state

    # -- multi-iteration fusion API -------------------------------------

    def fused_start(self, syndromes, prior, groups, alphas, track_flips):
        """Begin a chunk: syndrome context, priors, initial messages.

        ``prior`` is ``(1, n)`` or ``(batch, n)``; ``groups`` the
        chunk's ``stop_groups`` ids or ``None``; ``alphas[i]`` the
        damping factor of iteration ``i + 1``.  The kernel owns (and
        compacts) all of them until the next ``fused_start``.
        """
        edges = self.edges
        m = syndromes.shape[0]
        ffi, _ = load_library()
        if self._graph is None:
            self._graph = _GRAPHS.get(edges)
            if self._graph is None:
                self._graph = _GRAPHS[edges] = _Graph(ffi, edges)
        st = self._state
        if st is None or m > st.cap or len(alphas) > st.alphas.size:
            cap, n_alphas = (st.cap, st.alphas.size) if st else (0, 0)
            st = self._state = _State(
                ffi, edges, max(m, cap), self.dtype, max(len(alphas), n_alphas)
            )
        c = st.c

        syndromes.take(edges.check_ids, axis=1, out=st.synd[:m])
        if edges.all_checks_nonempty:
            st.feasible[:m] = True
        else:
            empty_bits = syndromes[:, edges.empty_check_ids]
            np.logical_not(empty_bits.any(axis=1), out=st.feasible[:m])
        if prior.shape[0] == 1:
            self._prior = np.ascontiguousarray(prior, dtype=self.dtype)
            c.prior = ffi.cast("void *", self._prior.ctypes.data)
            c.prior_stride = 0
            st.v2c[:m] = self._prior[:, edges.edge_var]
        else:
            st.prior[:m] = prior
            c.prior = st.ptr["prior"]
            c.prior_stride = edges.n_vars
            st.prior[:m].take(edges.edge_var, axis=1, out=st.v2c[:m])
        st.alphas[: len(alphas)] = alphas
        self._track = bool(track_flips)
        if self._track:
            st.flips[:m] = 0
            c.flips = st.ptr["flips"]
        else:
            c.flips = ffi.NULL
        if groups is None:
            c.groups = ffi.NULL
        else:
            st.groups[:m] = groups
            c.groups = st.ptr["groups"]
        self._m = m

    def fused_run(self, it0, n_iter):
        """Run iterations ``it0 + 1 .. it0 + n_iter`` over the live rows.

        Returns ``(conv, frozen, stop_rel)`` views, valid until the next
        kernel call: per-row convergence, whether the row's group
        stopped, and the iterations each row ran in this call.
        """
        m = self._m
        st = self._state
        _, lib = load_library()
        run = lib.bp_run_f32 if self.dtype == np.float32 else lib.bp_run_f64
        run(self._graph.c, st.c, m, it0, n_iter, self.clamp)
        return st.conv[:m], st.frozen[:m], st.stop_rel[:m]

    @property
    def fused_marg(self):
        return self._state.marg[: self._m]

    @property
    def fused_hard(self):
        return self._state.hard[: self._m]

    @property
    def fused_flips(self):
        return self._state.flips[: self._m] if self._track else None

    def fused_compact(self, keep):
        """Drop retired rows from every fused-path buffer."""
        m = self._m
        st = self._state
        st.keep[:m] = keep
        load_library()[1].bp_compact(
            self._graph.c, st.c, m, st.ptr["keep"], self.dtype.itemsize
        )
        self._m = int(np.count_nonzero(keep))

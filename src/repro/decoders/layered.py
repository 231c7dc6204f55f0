"""Layered (serial-schedule) min-sum BP.

The paper uses layered BP for the ``[[288,12,18]]`` code under circuit
noise (Fig. 8), where the flooding schedule suffers from symmetric
trapping sets.  A layered sweep updates check nodes sequentially,
propagating fresh information within a single iteration.

Fully serial sweeps are slow in Python, so checks are grouped into
*conflict-free layers* (no two checks in a layer share a variable) via
greedy coloring of the check conflict graph; checks within a layer
update simultaneously with no semantic difference from a serial sweep
over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro._matrix import mod2_right_mul
from repro.decoders.base import BatchDecodeResult, DecodeResult, Decoder
from repro.decoders.bp import DampingSchedule
from repro.decoders.tanner import shared_tanner_edges
from repro.problem import DecodingProblem

__all__ = ["LayeredMinSumBP", "check_conflict_layers"]


def check_conflict_layers(check_matrix) -> list[np.ndarray]:
    """Partition checks into groups that share no variable.

    Greedy graph coloring of the check conflict graph (two checks
    conflict when some column of H touches both).
    """
    h = check_matrix if sp.issparse(check_matrix) else sp.csr_matrix(
        np.asarray(check_matrix)
    )
    gram = (h @ h.T).tocoo()
    graph = nx.Graph()
    graph.add_nodes_from(range(h.shape[0]))
    graph.add_edges_from(
        (int(i), int(j)) for i, j in zip(gram.row, gram.col) if i != j
    )
    coloring = nx.greedy_color(graph, strategy="largest_first")
    n_colors = max(coloring.values()) + 1 if coloring else 0
    layers = [[] for _ in range(n_colors)]
    for check, color in coloring.items():
        layers[color].append(check)
    return [np.asarray(sorted(layer), dtype=np.intp) for layer in layers]


@dataclass
class _Layer:
    edge_idx: np.ndarray      # positions into the check-sorted edge arrays
    edge_var: np.ndarray      # variable of each layer edge
    starts: np.ndarray        # reduceat boundaries within the layer slice
    segment: np.ndarray       # per-edge segment id within the layer
    check_of_segment: np.ndarray


class LayeredMinSumBP(Decoder):
    """Min-sum BP with a layered (serial) schedule.

    Same message rules as :class:`~repro.decoders.bp.MinSumBP`; one
    iteration is a full sweep over all layers.
    """

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        max_iter: int = 100,
        damping: str | float = "adaptive",
        clamp: float = 50.0,
        track_oscillations: bool = False,
        dtype=np.float32,
        batch_size: int = 32,
    ):
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.problem = problem
        self.max_iter = int(max_iter)
        self.damping = (
            damping if isinstance(damping, DampingSchedule)
            else DampingSchedule(damping)
        )
        self.clamp = float(clamp)
        self.track_oscillations = bool(track_oscillations)
        self.dtype = dtype
        self.batch_size = int(batch_size)
        self.edges = shared_tanner_edges(problem.check_matrix)
        self._prior_llr = problem.llr_priors().astype(dtype)
        self._layers = self._build_layers()

    def _build_layers(self) -> list[_Layer]:
        edges = self.edges
        groups = check_conflict_layers(self.problem.check_matrix)
        # Map check id -> (slice into check-sorted edges).
        seg_of_check = {int(c): k for k, c in enumerate(edges.check_ids)}
        seg_ends = np.append(edges.check_starts[1:], edges.n_edges)
        layers = []
        for group in groups:
            idx_parts = []
            starts = []
            seg_ids = []
            checks = []
            offset = 0
            for c in group:
                k = seg_of_check.get(int(c))
                if k is None:
                    continue  # check with no edges
                lo, hi = edges.check_starts[k], seg_ends[k]
                idx_parts.append(np.arange(lo, hi))
                starts.append(offset)
                seg_ids.append(np.full(hi - lo, len(checks)))
                checks.append(int(c))
                offset += hi - lo
            if not idx_parts:
                continue
            edge_idx = np.concatenate(idx_parts)
            layers.append(
                _Layer(
                    edge_idx=edge_idx,
                    edge_var=edges.edge_var[edge_idx],
                    starts=np.asarray(starts, dtype=np.intp),
                    segment=np.concatenate(seg_ids),
                    check_of_segment=np.asarray(checks, dtype=np.intp),
                )
            )
        return layers

    @property
    def n_layers(self) -> int:
        """Number of conflict-free layers per sweep."""
        return len(self._layers)

    # -- public API -----------------------------------------------------

    def decode(self, syndrome) -> DecodeResult:
        return self.decode_many(np.atleast_2d(syndrome))[0]

    def decode_many(self, syndromes) -> BatchDecodeResult:
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        chunks = [
            self._decode_chunk(syndromes[i: i + self.batch_size])
            for i in range(0, syndromes.shape[0], self.batch_size)
        ]
        return BatchDecodeResult.concat(chunks)

    # -- core -----------------------------------------------------------

    def _decode_chunk(self, syndromes: np.ndarray) -> BatchDecodeResult:
        edges = self.edges
        batch = syndromes.shape[0]
        n = edges.n_vars

        errors = np.zeros((batch, n), dtype=np.uint8)
        marginals = np.tile(self._prior_llr, (batch, 1))
        iterations = np.full(batch, self.max_iter, dtype=np.int64)
        converged = np.zeros(batch, dtype=bool)
        flips_out = (
            np.zeros((batch, n), dtype=np.int32)
            if self.track_oscillations else None
        )

        index = np.arange(batch)
        synd = syndromes
        post = np.tile(self._prior_llr, (batch, 1))
        c2v = np.zeros((batch, edges.n_edges), dtype=self.dtype)
        prev_hard = np.zeros((batch, n), dtype=np.uint8)
        flips = (
            np.zeros((batch, n), dtype=np.int32)
            if self.track_oscillations else None
        )

        for it in range(1, self.max_iter + 1):
            alpha = self.damping.alpha(it)
            for layer in self._layers:
                self._layer_update(post, c2v, synd, layer, alpha)
            hard = (post <= 0).astype(np.uint8)
            if flips is not None and it > 1:
                flips += hard ^ prev_hard
            prev_hard = hard

            syn_hat = mod2_right_mul(hard, self.problem.check_matrix)
            done = ~np.any(syn_hat ^ synd, axis=1)
            if done.any():
                done_idx = index[done]
                errors[done_idx] = hard[done]
                marginals[done_idx] = post[done]
                iterations[done_idx] = it
                converged[done_idx] = True
                if flips is not None:
                    flips_out[done_idx] = flips[done]
                keep = ~done
                if not keep.any():
                    return BatchDecodeResult(
                        errors, converged, iterations, marginals, flips_out
                    )
                index = index[keep]
                synd = synd[keep]
                post = post[keep]
                c2v = c2v[keep]
                prev_hard = prev_hard[keep]
                if flips is not None:
                    flips = flips[keep]
                hard = hard[keep]

        errors[index] = hard
        marginals[index] = post
        if flips is not None:
            flips_out[index] = flips
        return BatchDecodeResult(
            errors, converged, iterations, marginals, flips_out
        )

    def _layer_update(self, post, c2v, synd, layer: _Layer, alpha) -> None:
        idx = layer.edge_idx
        seg = layer.segment
        old = c2v[:, idx]
        v2c = post[:, layer.edge_var] - old
        np.clip(v2c, -self.clamp, self.clamp, out=v2c)

        neg = v2c < 0
        magnitude = np.abs(v2c)
        parity = np.bitwise_xor.reduceat(neg, layer.starts, axis=1)
        min1 = np.minimum.reduceat(magnitude, layer.starts, axis=1)
        min1_e = min1[:, seg]
        is_min = magnitude == min1_e
        masked = np.where(is_min, np.inf, magnitude)
        min2 = np.minimum.reduceat(masked, layer.starts, axis=1)
        n_min = np.add.reduceat(is_min, layer.starts, axis=1)
        use_second = is_min & (n_min[:, seg] == 1)
        others_min = np.where(use_second, min2[:, seg], min1_e)
        others_min = np.minimum(others_min, self.clamp)
        sign = 1.0 - 2.0 * (parity[:, seg] ^ neg)
        sign_syn = 1.0 - 2.0 * synd[:, layer.check_of_segment[seg]]
        new = (alpha * others_min * sign * sign_syn).astype(self.dtype)

        c2v[:, idx] = new
        post[:, layer.edge_var] += new - old

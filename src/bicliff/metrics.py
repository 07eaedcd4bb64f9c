"""Figures of merit combining success probability and output quality."""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np

from .states import DistStats, PROB_TOL


def shannon_entropy(p) -> float:
    """Entropy in bits of a probability 4-vector, with 0*log(0) = 0."""
    p = tuple(float(x) for x in p)
    if min(p) < 0:
        raise ValueError("negative probability entry")
    if abs(sum(p) - 1.0) > PROB_TOL:
        raise ValueError("probabilities do not sum to 1")
    return -sum(x * log2(x) for x in p if x > 0)


def binary_entropy(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * log2(x) - (1 - x) * log2(1 - x)


def hashing_yield(stats: DistStats, n: int) -> float:
    """Asymptotic maximally-entangled-pair rate of distil-then-hash.

    (1 - H(output coefficients)) * p_suc / n, clamped at zero because a
    hashing stage on a too-noisy output yields nothing.
    """
    if stats.p_suc <= 0:
        return 0.0
    return max(0.0, 1.0 - shannon_entropy(stats.output_coeffs())) * stats.p_suc / n


def ree_bell_diagonal(p) -> float:
    """Relative entropy of entanglement of a Bell-diagonal state.

    1 - h2(largest coefficient) above the separability threshold 1/2,
    zero at or below it.
    """
    p = tuple(float(x) for x in p)
    if abs(sum(p) - 1.0) > PROB_TOL:
        raise ValueError("probabilities do not sum to 1")
    fmax = max(p)
    if fmax <= 0.5:
        return 0.0
    return 1.0 - binary_entropy(fmax)


def ree_product(stats: DistStats) -> float:
    """Success probability times the relative entropy of entanglement."""
    if stats.p_suc <= 0:
        return 0.0
    return stats.p_suc * ree_bell_diagonal(stats.output_coeffs())


@dataclass(frozen=True)
class MetricPoint:
    f_in: float
    n: int
    value: float
    protocol_id: object


def target_rate(f_in: float, f_tar: float, protocol_sets: dict) -> MetricPoint:
    """Best rate reaching a threshold fidelity with at most one round.

    protocol_sets maps n to (label, polynomial-mode DistStats) pairs.  The
    rate of a qualifying n-to-1 protocol is p_suc(f_in)/n; keeping the pair
    undistilled counts as rate 1 when f_in already meets the threshold.
    """
    if not 0.5 < f_tar < 1:
        raise ValueError("threshold fidelity must lie in (1/2, 1)")
    if f_in >= f_tar:
        return MetricPoint(f_in, 1, 1.0, "none")
    best = MetricPoint(f_in, 0, 0.0, None)
    for n in sorted(protocol_sets):
        for label, st in protocol_sets[n]:
            p = st.p_suc(f_in)
            if p <= 0:
                continue
            if st.f_num(f_in) / p >= f_tar:
                rate = p / n
                if rate > best.value:
                    best = MetricPoint(f_in, n, rate, label)
    return best


def _trimmed(row: list) -> list:
    """row without its trailing zeros, as `np.trim_zeros(row, "b")` leaves it."""
    end = len(row)
    while end and row[end - 1] == 0:
        end -= 1
    return row[:end]


def _xyz_order(rest: np.ndarray) -> np.ndarray:
    """(protocols, 3) positions that sort the X/Y/Z rows of (protocols, 3, d)
    coefficients as `DistStats` does: compared with trailing zeros trimmed."""
    order = [sorted(range(3), key=lambda k: _trimmed(r[k])) for r in rest.tolist()]
    return np.array(order, dtype=np.intp).reshape(-1, 3)


class CurveSet:
    """Statistic curves of a protocol family over a fidelity grid, vectorised.

    coeffs (protocols, 4, n+1) holds each protocol's four coset sums (base
    coset first) of an n-pair family as power-ascending int64 rows over 3^n.
    While coefficients and 3^n are exact doubles (Werner families up to n=8),
    every value equals float Horner on the exact `DistStats` polynomial.
    """

    def __init__(self, coeffs: np.ndarray, n: int, grid: np.ndarray):
        self.coeffs = coeffs
        self.n = n
        self.grid = grid
        self.p = self._on_grid(coeffs.sum(axis=1))
        self.f = self._on_grid(coeffs[:, 0])

    def _on_grid(self, rows: np.ndarray) -> np.ndarray:
        """Values of (..., d) coefficient rows at every grid point, shape (..., grid)."""
        coeffs = rows / 3**self.n
        out = np.zeros(coeffs.shape[:-1] + self.grid.shape)
        for k in range(coeffs.shape[-1] - 1, -1, -1):
            out *= self.grid
            out += coeffs[..., k, None]
        return out

    def fis(self, rows=slice(None)) -> np.ndarray:
        """X/Y/Z coset sums of protocols[rows] in `DistStats` order: (protocols, 3, grid).

        That order compares rows with trailing zeros trimmed, so (a, b, 0)
        sorts before (a, b, c) even for c < 0.
        """
        rest = self.coeffs[rows, 1:]
        order = _xyz_order(rest).reshape(-1, 3, 1)
        return self._on_grid(np.take_along_axis(rest, order, axis=1))

    def best_fidelity(self) -> np.ndarray:
        return (self.f / self.p).max(axis=0)

    def _max_by_slices(self, values) -> np.ndarray:
        """Pointwise maximum of values(rows), (protocols, grid), over 64 protocols
        at a time, so that the (protocols, 4, grid) arrays behind it stay small."""
        slices = (slice(lo, lo + 64) for lo in range(0, len(self.p), 64))
        return np.max([values(rows).max(axis=0) for rows in slices], axis=0)

    def best_yield(self) -> np.ndarray:
        def rate(rows):
            # normalised (F, F1, F2, F3), the entropy summed in `DistStats` order
            coeffs = np.concatenate([self.f[rows, None, :], self.fis(rows)], axis=1)
            coeffs /= self.p[rows, None, :]
            terms = np.log2(coeffs, where=coeffs > 0, out=np.zeros_like(coeffs))
            terms *= coeffs
            entropy = -terms.sum(axis=1)
            return np.clip(1.0 - entropy, 0.0, None) * self.p[rows] / self.n

        return self._max_by_slices(rate)

    def best_ree(self) -> np.ndarray:
        def ree(rows):
            # the largest coset sum, then one division: x -> x / p is monotone for p > 0
            fmax = np.maximum(self.f[rows], self._on_grid(self.coeffs[rows, 1:]).max(axis=1))
            fmax /= self.p[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                h = -(fmax * np.log2(fmax) + (1 - fmax) * np.log2(1 - fmax))
            return np.where(fmax > 0.5, 1.0 - np.where(fmax < 1, h, 0.0), 0.0) * self.p[rows]

        return self._max_by_slices(ree)

    def best_target_rate(self, f_tar: float) -> np.ndarray:
        """Largest p_suc/n among protocols whose F_out reaches f_tar, else 0; 1
        where f_in already meets f_tar, as the pair is then kept undistilled.

        Pointwise equal to `target_rate` over the n-protocols alone.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            reaches = (self.p > 0) & (self.f / self.p >= f_tar)
        rate = np.where(reaches, self.p / self.n, 0.0).max(axis=0)
        return np.where(self.grid >= f_tar, 1.0, rate)

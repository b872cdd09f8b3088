"""The NumPy TileSeek kernel, kept as a test oracle: the Table-2
buffer model, the fused-dataflow traffic model and the MCTS reward as
batched array math, plus the batched infeasibility diagnosis.

The scalar modules (:mod:`repro.tileseek.buffer_model`,
:mod:`repro.tileseek.evaluate`) price one :class:`TilingConfig` at a
time; the production search prices every candidate through them.
This module re-expresses the same formulas over an ``(N, 5)`` matrix
of ``[b, d, m1, p, s]`` candidate vectors so a whole frontier is
priced in one call.  Every array here is required to be
*bit-identical* to a loop over the scalar functions, which the
property suite (``tests/tileseek/test_batched.py``) and the
``batched_vs_scalar_speedup`` benchmark gate both assert.  No
production path imports this module.

Two exactness rules make that possible:

* **Integer exactness.**  Table-2 footprints are exact integer word
  counts.  The batch kernel evaluates them in ``int64`` when a
  monotonicity corner check (the formulas at the columnwise maxima)
  proves no intermediate can overflow, and falls back to
  object-dtype arrays -- elementwise Python integers -- when it
  cannot.  Feasibility compares are therefore always exact, never
  rounded through a float.
* **Float-operation identity.**  The traffic/energy/reward numbers are
  floats; the batch kernel performs *the same IEEE operations in the
  same order* as the scalar code (same associativity, same
  divisions), so results match bit for bit, not just within an
  epsilon.  Inputs big enough to round during the int -> float64
  conversion (beyond :data:`EXACT_FLOAT_LIMIT`) are routed back
  through the scalar path by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.spec import ArchitectureSpec
from repro.model.config import ModelConfig
from repro.model.workload import Workload
from repro.resilience.diagnostics import BufferDiagnosis, minimal_config
from repro.tileseek.buffer_model import (
    FUSED_MODULES,
    TilingConfig,
    fused_buffer_requirement,
    intra_tile_p_prime,
)
from repro.tileseek.evaluate import TilingAssessment

#: Column order of a candidate matrix (mirrors ``FACTOR_ORDER``).
FACTOR_COLUMNS: Tuple[str, ...] = ("b", "d", "m1", "p", "s")

#: Largest value a factor may take before int -> float64 conversion
#: could round (2**53 exactly; kept with headroom for products that
#: feed float division, e.g. ``b * p``).
EXACT_FLOAT_LIMIT = 1 << 50

_INT64_LIMIT = (1 << 63) - 1

#: float64 has 53 significand bits; integers beyond this round.
_FLOAT64_EXACT = 1 << 53


def exactly_priceable(assignment: Sequence[int]) -> bool:
    """Whether float64 batch math is bit-identical to the scalar path.

    The scalar traffic model divides exact Python integers
    (``total_tokens / (b * p)``, correctly rounded by CPython); the
    batch path divides their float64 conversions.  Both round
    identically only when every operand converts exactly: each factor
    below :data:`EXACT_FLOAT_LIMIT` and the ``b * p`` token-group
    product within float64's 53-bit significand.  Grid candidates
    always qualify; hand-built oversized assignments may not, and
    callers route those rows through the scalar evaluator instead.
    """
    b, _, _, p, _ = (int(v) for v in assignment)
    return (
        max(int(v) for v in assignment) <= EXACT_FLOAT_LIMIT
        and b * p <= _FLOAT64_EXACT
    )


def table2_module_words(model: ModelConfig, b, d, m1, m0, p, s,
                        p_prime) -> dict:
    """Table-2 footprints for columns of tiling factors.

    Accepts NumPy arrays (``int64`` or object-dtype Python integers)
    or plain scalars; every expression matches the scalar functions in
    :mod:`repro.tileseek.buffer_model` term for term, so results are
    exact integers.

    Returns:
        ``{"qkv": ..., "mha": ..., "layernorm": ..., "ffn": ...}``
        with one words value (or array) per module.
    """
    h, e, f = model.heads, model.e_head, model.f_head
    hk = model.effective_kv_heads
    qkv = (
        b * d * (4 * p + 3 * m1 * m0)
        + d * e * (h + 2 * hk)
        + 2 * b * h * p
    )
    mha = (
        b * e * (h * p + 2 * hk * m1 * m0)
        + b * h * p * (2 + 2 * f)
        + 4 * m0 * p_prime
        + 18 * p_prime
    )
    layernorm = 3 * b * h * f * p + 4 * h * f * p_prime
    ffn = (
        h * f * (2 * b * p + s)
        + s * (p + 2)
        + 2 * s * p_prime
    )
    return {"qkv": qkv, "mha": mha, "layernorm": layernorm,
            "ffn": ffn}


def words_dtype_for(model: ModelConfig, corner: TilingConfig):
    """The narrowest exact dtype for Table-2 math up to ``corner``.

    ``corner`` holds the columnwise maxima of the batch.  The Table-2
    formulas are sums of non-negative products and monotone in every
    factor, so every elementwise intermediate is bounded by the fused
    requirement at the corner; if that fits ``int64``, the whole batch
    does.  Otherwise fall back to object dtype (exact Python ints).
    """
    bound = fused_buffer_requirement(corner, model)
    return np.int64 if bound <= _INT64_LIMIT else object


@dataclass(frozen=True)
class BatchedAssessment:
    """Columnar :class:`TilingAssessment`: one array per field.

    ``kv_passes`` / ``weight_passes`` are float64 arrays holding exact
    integer values (the scalar path's ``math.ceil`` results); they are
    cast back to ``int`` on materialization.
    """

    feasible: np.ndarray
    buffer_words_required: np.ndarray
    dram_words: np.ndarray
    dram_seconds: np.ndarray
    energy_pj: np.ndarray
    kv_passes: np.ndarray
    weight_passes: np.ndarray

    def __len__(self) -> int:
        return len(self.dram_words)


class BatchedTilingEvaluator:
    """Prices ``(N, 5)`` candidate matrices against one workload/arch.

    All workload- and architecture-level constants are hoisted at
    construction; each :meth:`assess` call is then a short sequence of
    elementwise array operations mirroring
    :func:`repro.tileseek.evaluate.assess_tiling` exactly.

    Args:
        workload: The problem instance.
        arch: Target architecture.
        m0: Inner K/V tile length (2D-array columns).
        rows: 2D-array rows (sets ``p' = ceil(p / rows)``).
        reward_metric: ``"energy"`` or ``"latency"`` (both monotone in
            DRAM words, as in the scalar reward).
    """

    def __init__(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        m0: int,
        rows: int,
        reward_metric: str = "energy",
    ) -> None:
        if reward_metric not in ("energy", "latency"):
            raise ValueError(
                f"unknown reward metric {reward_metric!r}"
            )
        model = workload.model
        self.model = model
        self.m0 = m0
        self.rows = rows
        self.reward_metric = reward_metric
        self._buffer_words = arch.buffer_words
        # Traffic-model constants, precomputed exactly as the scalar
        # expressions in ``dram_traffic_words`` spell them.
        self._qkv_weights = (
            model.d_model * model.e_head
            * (model.heads + 2 * model.effective_kv_heads)
        )
        self._ffn_weights = 2.0 * model.d_model * model.ffn_hidden
        self._weight_words = self._qkv_weights + self._ffn_weights
        self._total_tokens = workload.batch * workload.seq_len
        self._activations = workload.activation_words
        self._kv_cache = workload.kv_words
        self._kv_spill = workload.kv_spill_words
        self._awf = workload.attention_work_fraction
        self._batch = workload.batch
        self._seq_len = workload.seq_len
        self._word_bytes = arch.word_bytes
        self._dram_bandwidth = arch.dram.bandwidth_bytes_per_s
        self._dram_pj_per_word = arch.energy.dram_pj_per_word

    # ------------------------------------------------------------------
    # Candidate-matrix construction
    # ------------------------------------------------------------------
    def matrix_from(
        self, assignments: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """An ``(N, 5)`` candidate matrix in the narrowest exact dtype.

        Values arrive as Python integers (tuples in ``FACTOR_ORDER``);
        the dtype is chosen by the corner check so Table-2 math cannot
        overflow.
        """
        matrix = np.array(list(assignments), dtype=object)
        maxima = [int(column.max()) for column in matrix.T]
        if self.words_dtype(maxima) is np.int64:
            return matrix.astype(np.int64)
        return matrix

    def words_dtype(self, maxima: Sequence[int]):
        """Exact Table-2 dtype for candidates bounded by ``maxima``."""
        b, d, m1, p, s = (int(v) for v in maxima)
        corner = TilingConfig(
            b=b, d=d, m1=m1, m0=self.m0, p=p, s=s,
            p_prime=intra_tile_p_prime(p, self.rows),
        )
        return words_dtype_for(self.model, corner)

    def completion_matrix(
        self,
        prefix: Sequence[int],
        values: Sequence[int],
        minima: Sequence[int],
        dtype=np.int64,
    ) -> np.ndarray:
        """Minimal-completion rows for a whole prefix frontier.

        Row ``i`` is ``prefix + (values[i],)`` completed with the
        per-level ``minima`` -- exactly the lower-bound configuration
        the scalar prune prices one candidate at a time.
        """
        level = len(prefix)
        matrix = np.empty((len(values), len(FACTOR_COLUMNS)),
                          dtype=dtype)
        for column, value in enumerate(prefix):
            matrix[:, column] = value
        matrix[:, level] = values
        for column in range(level + 1, len(FACTOR_COLUMNS)):
            matrix[:, column] = minima[column]
        return matrix

    # ------------------------------------------------------------------
    # Vectorized Table-2 buffer model
    # ------------------------------------------------------------------
    def _columns(self, matrix: np.ndarray):
        b, d, m1, p, s = (matrix[:, i] for i in range(5))
        p_prime = -(-p // self.rows)
        return b, d, m1, p, s, p_prime

    def module_words(self, matrix: np.ndarray) -> dict:
        """Per-module Table-2 words, one array per fused module."""
        b, d, m1, p, s, p_prime = self._columns(matrix)
        return table2_module_words(
            self.model, b, d, m1, self.m0, p, s, p_prime
        )

    def buffer_words(self, matrix: np.ndarray) -> np.ndarray:
        """Peak fused footprint per candidate (exact integers)."""
        words = self.module_words(matrix)
        return np.maximum.reduce(list(words.values()))

    def feasible(self, matrix: np.ndarray) -> np.ndarray:
        """Whether each candidate's footprint fits the buffer."""
        mask = self.buffer_words(matrix) <= self._buffer_words
        return np.asarray(mask, dtype=bool)

    def viable_values(
        self,
        prefix: Sequence[int],
        values: Sequence[int],
        minima: Sequence[int],
        dtype=np.int64,
    ) -> List[int]:
        """The level's candidates whose minimal completion fits.

        The batched equivalent of filtering a level through the scalar
        ``prune`` callback: one vectorized call per prefix frontier
        instead of one Table-2 evaluation per candidate.
        """
        matrix = self.completion_matrix(prefix, values, minima,
                                        dtype=dtype)
        mask = self.feasible(matrix)
        return [value for value, ok in zip(values, mask) if ok]

    # ------------------------------------------------------------------
    # Vectorized traffic / energy / reward
    # ------------------------------------------------------------------
    def assess(self, matrix: np.ndarray) -> BatchedAssessment:
        """Batched :func:`assess_tiling`: same IEEE operations in the
        same order, so every column matches the scalar path bitwise."""
        required = self.buffer_words(matrix)
        feasible = np.asarray(required <= self._buffer_words,
                              dtype=bool)
        b_float = matrix[:, 0].astype(np.float64)
        p_float = matrix[:, 3].astype(np.float64)
        bp_float = (matrix[:, 0] * matrix[:, 3]).astype(np.float64)
        # Weight passes: one per resident token group (scalar:
        # ``max(1, ceil(total_tokens / (b * p)))``).
        groups = np.maximum(
            1.0, np.ceil(self._total_tokens / bp_float)
        )
        # K/V passes: a per-batch-element cache that fits half the
        # buffer is fetched once; otherwise one reload per Q tile.
        per_batch_kv = self._kv_cache / self._batch * b_float
        kv_fits = per_batch_kv <= 0.5 * self._buffer_words
        reload_passes = np.ceil(self._seq_len / p_float)
        kv_passes = np.where(kv_fits, 1.0, reload_passes)
        kv_reads = np.where(
            kv_fits,
            self._kv_cache,
            self._kv_cache * reload_passes * self._awf,
        )
        kv_words = self._kv_spill + kv_reads
        total = (
            self._activations  # layer input read
            + self._activations  # layer output write
            + self._weight_words * groups
            + kv_words
        )
        dram_seconds = (
            total * self._word_bytes
        ) / self._dram_bandwidth
        energy_pj = total * self._dram_pj_per_word
        return BatchedAssessment(
            feasible=feasible,
            buffer_words_required=required,
            dram_words=total,
            dram_seconds=dram_seconds,
            energy_pj=energy_pj,
            kv_passes=kv_passes,
            weight_passes=groups,
        )

    def rewards(
        self, assessment: BatchedAssessment, reference: float
    ) -> np.ndarray:
        """Batched :func:`reward_for`: 0 for infeasible candidates,
        else the traffic ratio against ``reference``."""
        total = assessment.dram_words
        safe = np.where(total > 0.0, total, 1.0)
        ratio = np.where(total <= 0.0, 1.0, reference / safe)
        return np.where(assessment.feasible, ratio, 0.0)

    def price(
        self, matrix: np.ndarray, reference: float
    ) -> Tuple[np.ndarray, BatchedAssessment]:
        """Assess a candidate matrix and score it in one call."""
        assessment = self.assess(matrix)
        return self.rewards(assessment, reference), assessment

    # ------------------------------------------------------------------
    # Scalar materialization
    # ------------------------------------------------------------------
    def assessment_at(
        self, assessment: BatchedAssessment, index: int
    ) -> TilingAssessment:
        """Row ``index`` as a scalar :class:`TilingAssessment`.

        Native Python types throughout (``int``/``float``/``bool``),
        so serialized results keep the scalar path's byte layout.
        """
        return TilingAssessment(
            feasible=bool(assessment.feasible[index]),
            buffer_words_required=int(
                assessment.buffer_words_required[index]
            ),
            dram_words=float(assessment.dram_words[index]),
            dram_seconds=float(assessment.dram_seconds[index]),
            energy_pj=float(assessment.energy_pj[index]),
            kv_passes=int(assessment.kv_passes[index]),
            weight_passes=int(assessment.weight_passes[index]),
        )


def diagnose_infeasible_batch(
    model: ModelConfig,
    buffer_words: int,
    m0: int,
    rows: int,
    cfgs: Sequence[Optional[TilingConfig]],
) -> List[Optional[BufferDiagnosis]]:
    """Batched ``diagnose_infeasible`` over many minimal tiles.

    Prices every configuration's Table-2 footprints in one vectorized
    pass.  Per entry the result is exactly what
    :func:`~repro.resilience.diagnostics.diagnose_infeasible` returns
    -- same integers, same first-in-Table-2-order tie-break for
    ``worst_module`` -- or ``None`` when that tile fits.

    Args:
        model: Model shapes.
        buffer_words: On-chip capacity.
        m0: Inner K/V tile length, used for defaulted entries.
        rows: 2D-array rows, used for defaulted entries.
        cfgs: Minimal configurations to indict; a ``None`` entry
            defaults to :func:`minimal_config`.
    """
    resolved = [
        cfg if cfg is not None
        else minimal_config(model, m0=m0, rows=rows)
        for cfg in cfgs
    ]
    if not resolved:
        return []
    corner = TilingConfig(
        b=max(c.b for c in resolved),
        d=max(c.d for c in resolved),
        m1=max(c.m1 for c in resolved),
        m0=max(c.m0 for c in resolved),
        p=max(c.p for c in resolved),
        s=max(c.s for c in resolved),
        p_prime=max(c.p_prime for c in resolved),
    )
    dtype = words_dtype_for(model, corner)
    columns = {
        name: np.array(
            [getattr(c, name) for c in resolved], dtype=dtype
        )
        for name in ("b", "d", "m1", "m0", "p", "s", "p_prime")
    }
    words = table2_module_words(
        model, columns["b"], columns["d"], columns["m1"],
        columns["m0"], columns["p"], columns["s"],
        columns["p_prime"],
    )
    # First-max tie-break in Table-2 order, like the scalar ``max``:
    # strictly-greater comparisons leave earlier modules in place.
    required = words[FUSED_MODULES[0]]
    worst = np.zeros(len(resolved), dtype=np.int64)
    for index, module in enumerate(FUSED_MODULES[1:], start=1):
        better = words[module] > required
        required = np.where(better, words[module], required)
        worst = np.where(better, index, worst)
    results: List[Optional[BufferDiagnosis]] = []
    for row, cfg in enumerate(resolved):
        need = int(required[row])
        if need <= buffer_words:
            results.append(None)
            continue
        results.append(BufferDiagnosis(
            capacity_words=int(buffer_words),
            required_words=need,
            overflow_words=int(need - buffer_words),
            worst_module=FUSED_MODULES[int(worst[row])],
            module_words={
                module: int(words[module][row])
                for module in FUSED_MODULES
            },
            smallest_tile=cfg.as_dict(),
        ))
    return results

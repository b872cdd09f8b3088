"""Extended-Einsum operations.

The Extended Einsum abstraction (Section 2.4 of the paper) generalizes
classic tensor contraction with user-defined *map* and *reduce*
operations.  Three operation kinds cover every equation in Einsum
Cascades 1-4:

* :data:`OpKind.CONTRACTION` -- multiplicative contraction over shared
  indices (Eq. 5), optionally followed by a broadcast bias add, e.g.
  ``FFN1[s,p] = NR[h,f,p] x WF1[h,f,s] + BF1[s]`` (Eq. 37).
* :data:`OpKind.MAP` -- element-wise map over broadcast-aligned inputs,
  e.g. ``SLN = exp(BQK - RM)`` (Eq. 15).
* :data:`OpKind.REDUCTION` -- reduce one input over the dims absent from
  the output, e.g. ``LM[h,p] = max over m0 of BQK[h,m0,p]`` (Eq. 13).

Every op reports its *compute load* per Eq. 40: the product of its output
dimension extents and its reduction dimension extents.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.einsum.tensor import TensorSpec


class OpKind(enum.Enum):
    """The three Extended-Einsum operation kinds."""

    CONTRACTION = "contraction"
    MAP = "map"
    REDUCTION = "reduction"


#: Map-function arities: name -> input count.  The callables live with
#: the NumPy evaluator (:data:`repro.einsum.evaluator.MAP_FUNCTIONS`),
#: so building and scheduling cascades never imports NumPy.
MAP_ARITY: Dict[str, int] = {
    "identity": 1,
    "add": 2,
    "sub": 2,
    "mul": 2,
    "div": 2,
    "max": 2,
    "exp": 1,
    "exp_diff": 2,
    "scale": 1,
    "add_const": 1,
    "square": 1,
    "rsqrt": 1,
    "relu": 1,
    "gelu": 1,
    "silu": 1,
}

#: Reduction-function names (reducers:
#: :data:`repro.einsum.evaluator.REDUCE_FUNCTIONS`).
REDUCE_NAMES: Tuple[str, ...] = ("sum", "max")


@dataclass(frozen=True)
class EinsumOp:
    """One Extended-Einsum operation inside a cascade.

    Attributes:
        name: Unique op name within its cascade (e.g. ``"BQK"``).
        kind: Operation kind (contraction / map / reduction).
        inputs: Input tensor specs, in evaluation order.
        output: Output tensor spec.
        fn: Map- or reduce-function name, one of :data:`MAP_ARITY`
            or :data:`REDUCE_NAMES`.  ``None`` for plain contractions.
        const: Optional scalar used by ``scale`` / ``add_const`` maps.
        bias: Optional bias tensor added (broadcast) after a contraction.
        state_inputs: Names of inputs that are *recurrent state* --
            values carried from the previous loop step (e.g. ``RM`` in
            Eq. 14).  State inputs do not create intra-epoch DAG edges.
        inv_extent_dims: Dimension names whose extent product divides
            the constant at evaluation time.  LayerNorm's mean uses
            ``const = 1 / (H * F)`` (Eq. 30) without baking shapes into
            the symbolic cascade.
        cost_weight: Multiplier on the Eq. 40 compute load; 1.0 for all
            paper ops, exposed for sensitivity studies.
    """

    name: str
    kind: OpKind
    inputs: Tuple[TensorSpec, ...]
    output: TensorSpec
    fn: Optional[str] = None
    const: Optional[float] = None
    bias: Optional[TensorSpec] = None
    state_inputs: Tuple[str, ...] = field(default_factory=tuple)
    inv_extent_dims: Tuple[str, ...] = field(default_factory=tuple)
    cost_weight: float = 1.0

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        if not self.inputs:
            raise ValueError(f"op {self.name!r} has no inputs")
        input_names = {t.name for t in self.inputs}
        unknown_state = set(self.state_inputs) - input_names
        if unknown_state:
            raise ValueError(
                f"op {self.name!r}: state_inputs {sorted(unknown_state)} "
                "are not inputs"
            )
        if self.kind is OpKind.CONTRACTION:
            all_in = set().union(*(t.dims for t in self.inputs))
            stray = set(self.output.dims) - all_in
            if stray:
                raise ValueError(
                    f"contraction {self.name!r}: output dims {sorted(stray)} "
                    "do not appear in any input"
                )
            if self.bias is not None:
                stray_bias = set(self.bias.dims) - set(self.output.dims)
                if stray_bias:
                    raise ValueError(
                        f"contraction {self.name!r}: bias dims "
                        f"{sorted(stray_bias)} not in output"
                    )
        elif self.kind is OpKind.MAP:
            if self.fn not in MAP_ARITY:
                raise ValueError(
                    f"map op {self.name!r}: unknown fn {self.fn!r}"
                )
            arity = MAP_ARITY[self.fn]
            if len(self.inputs) != arity:
                raise ValueError(
                    f"map op {self.name!r}: fn {self.fn!r} expects {arity} "
                    f"inputs, got {len(self.inputs)}"
                )
            for t in self.inputs:
                stray = set(t.dims) - set(self.output.dims)
                if stray:
                    raise ValueError(
                        f"map op {self.name!r}: input {t.name!r} dims "
                        f"{sorted(stray)} not in output (no implicit "
                        "reduction in map ops)"
                    )
        elif self.kind is OpKind.REDUCTION:
            if self.fn not in REDUCE_NAMES:
                raise ValueError(
                    f"reduction {self.name!r}: unknown fn {self.fn!r}"
                )
            if len(self.inputs) != 1:
                raise ValueError(
                    f"reduction {self.name!r}: expects exactly one input"
                )
            stray = set(self.output.dims) - set(self.inputs[0].dims)
            if stray:
                raise ValueError(
                    f"reduction {self.name!r}: output dims {sorted(stray)} "
                    "not in input"
                )
            if set(self.output.dims) == set(self.inputs[0].dims):
                raise ValueError(
                    f"reduction {self.name!r}: nothing to reduce"
                )

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def reduction_dims(self) -> Tuple[str, ...]:
        """Dims reduced away, in first-appearance order (Eq. 40)."""
        out = set(self.output.dims)
        seen = []
        for t in self.inputs:
            for d in t.dims:
                if d not in out and d not in seen:
                    seen.append(d)
        return tuple(seen)

    @property
    def output_dims(self) -> Tuple[str, ...]:
        """The output dimension names."""
        return self.output.dims

    @property
    def is_gemm_like(self) -> bool:
        """Whether this op is a multiply-accumulate contraction.

        GEMM-like ops prefer the 2D PE array (Table 1); map and
        reduction ops are streaming/vector work for the 1D array.
        """
        return (
            self.kind is OpKind.CONTRACTION and bool(self.reduction_dims)
        )

    def effective_const(self, extents: Mapping[str, int]) -> Optional[float]:
        """The scalar constant after applying :attr:`inv_extent_dims`."""
        if self.const is None and not self.inv_extent_dims:
            return None
        value = 1.0 if self.const is None else float(self.const)
        for dim in self.inv_extent_dims:
            value /= float(extents[dim])
        return value

    def input_names(self) -> Tuple[str, ...]:
        """Names of all input tensors (including state inputs)."""
        return tuple(t.name for t in self.inputs) + (
            (self.bias.name,) if self.bias is not None else ()
        )

    def dataflow_input_names(self) -> Tuple[str, ...]:
        """Input names that create DAG edges (state inputs excluded)."""
        state = set(self.state_inputs)
        return tuple(n for n in self.input_names() if n not in state)

    # ------------------------------------------------------------------
    # Cost model (Eq. 40)
    # ------------------------------------------------------------------
    def compute_load(self, extents: Mapping[str, int]) -> float:
        """Scalar-operation count: Eq. 40 of the paper.

        ``load = prod(output dims) * prod(reduction dims)``, scaled by
        :attr:`cost_weight`.
        """
        out = math.prod(int(extents[d]) for d in self.output.dims) or 1
        red = math.prod(int(extents[d]) for d in self.reduction_dims) or 1
        return float(out * red) * self.cost_weight

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        tag = self.fn or "x"
        return f"{self.output} = {tag}({ins})"


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def contraction(
    name: str,
    inputs: Tuple[TensorSpec, ...],
    output: TensorSpec,
    bias: Optional[TensorSpec] = None,
) -> EinsumOp:
    """Build a contraction op (optionally with a broadcast bias add)."""
    return EinsumOp(
        name=name,
        kind=OpKind.CONTRACTION,
        inputs=inputs,
        output=output,
        bias=bias,
    )


def map_op(
    name: str,
    fn: str,
    inputs: Tuple[TensorSpec, ...],
    output: TensorSpec,
    const: Optional[float] = None,
    state_inputs: Tuple[str, ...] = (),
    inv_extent_dims: Tuple[str, ...] = (),
) -> EinsumOp:
    """Build an element-wise map op."""
    return EinsumOp(
        name=name,
        kind=OpKind.MAP,
        inputs=inputs,
        output=output,
        fn=fn,
        const=const,
        state_inputs=state_inputs,
        inv_extent_dims=inv_extent_dims,
    )


def reduction(
    name: str,
    fn: str,
    input_spec: TensorSpec,
    output: TensorSpec,
) -> EinsumOp:
    """Build a reduction op (``fn`` is ``"sum"`` or ``"max"``)."""
    return EinsumOp(
        name=name,
        kind=OpKind.REDUCTION,
        inputs=(input_spec,),
        output=output,
        fn=fn,
    )

"""Extended-Einsum intermediate representation.

The paper expresses every Transformer sub-layer as a *Cascade of Einsums*
(Section 2.4 and 3.1).  This package provides the IR for those cascades:

* :mod:`repro.einsum.tensor` -- named tensors with symbolic dimensions.
* :mod:`repro.einsum.operation` -- the three Extended-Einsum op kinds
  (contraction, map, reduction) plus compute-load accounting (Eq. 40).
* :mod:`repro.einsum.cascade` -- ordered op sequences with shape
  inference, dataflow queries and recurrence (running-state) support.
* :mod:`repro.einsum.evaluator` -- a NumPy reference evaluator used to
  prove the cascades numerically equivalent to textbook formulations.
* :mod:`repro.einsum.builders` -- constructors for Einsum Cascades 1-4
  (1-pass attention, QKV projection, Add & LayerNorm, FFN).
* :mod:`repro.einsum.parser` -- a tiny ``"h e p, h e m -> h m p"`` spec
  parser for concise op construction.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.einsum.cascade": ("Cascade",),
    "repro.einsum.operation": (
        "EinsumOp", "OpKind", "contraction", "map_op", "reduction",
    ),
    "repro.einsum.parser": ("parse_signature",),
    "repro.einsum.tensor": ("TensorSpec",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

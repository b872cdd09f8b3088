"""The learned warm-start predictor.

A deliberately small model: k-nearest-neighbor over the normalized
feature vectors of :mod:`repro.learn.corpus`.  The corpus holds one
record per distinct feature vector (best reward wins), so prediction
is a sort of the training set by squared distance -- tie-broken by
record key, lexically, so the neighbor order (and therefore every
prediction) is byte-reproducible on any platform and hash seed.

The fitted model is itself a plan-cache artifact (kind
``learn-model``), content-addressed and salt-stamped like every other
cached result: one slot per code version, so a model fitted by an
older tree is simply never *found* by a newer one, and
:func:`load_model` re-checks the stored salt besides -- a stale model
cannot be served even if a foreign process wrote into the current
slot.  Same corpus in, byte-identical artifact out.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.learn.corpus import FEATURE_ORDER, Corpus, corpus_hash
from repro.runner.cache import PlanCache, code_salt, stable_hash

#: Model schema version; bump on incompatible artifact changes.
MODEL_VERSION = 1

#: Plan-cache kind of the persisted artifact.
MODEL_KIND = "learn-model"

#: Default neighbor count (overridable per call or via
#: ``REPRO_LEARN_K``).
DEFAULT_K = 3


class Predictor:
    """The minimal predictor interface the wiring layers consume."""

    def predict(
        self,
        features: Mapping[str, float],
        k: Optional[int] = None,
    ) -> Tuple[Tuple[int, ...], ...]:
        """Up to ``k`` distinct predicted assignments, best first."""
        raise NotImplementedError


class KNNPredictor(Predictor):
    """k-nearest-neighbor over normalized shape/arch features.

    Args:
        records: Corpus records (``{key, features, assignment,
            reward}``); stored sorted by key so the artifact bytes
            are independent of input order.
        k: Default neighbor count per prediction.
        salt: Code salt of the corpus the model was fitted on
            (defaults to the current tree's).
        corpus: Content hash of the training corpus (recomputed from
            the records when omitted).
    """

    def __init__(
        self,
        records: Sequence[Mapping[str, Any]],
        k: int = DEFAULT_K,
        salt: Optional[str] = None,
        corpus: Optional[str] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.records: Tuple[Dict[str, Any], ...] = tuple(sorted(
            (dict(record) for record in records),
            key=lambda record: record["key"],
        ))
        self.k = int(k)
        self.salt = code_salt() if salt is None else salt
        self.corpus = corpus if corpus is not None else stable_hash({
            "records": [dict(r) for r in self.records],
            "salt": self.salt,
        })

    @classmethod
    def fit(
        cls, corpus: Corpus, k: Optional[int] = None
    ) -> "KNNPredictor":
        """Fit on an extracted corpus (kNN "fitting" is storage; the
        value is in the normalized, deduplicated records)."""
        return cls(
            corpus.records,
            k=DEFAULT_K if k is None else k,
            salt=corpus.salt,
            corpus=corpus_hash(corpus),
        )

    def predict(
        self,
        features: Mapping[str, float],
        k: Optional[int] = None,
    ) -> Tuple[Tuple[int, ...], ...]:
        """Up to ``k`` distinct nearest-neighbor assignments.

        Neighbors are ordered by squared feature distance, ties by
        record key (lexical) -- a total, platform-independent order.
        Distinct means distinct *assignments*: several neighbors
        voting for the same tiling yield one candidate.
        """
        limit = self.k if k is None else k
        if limit < 1:
            raise ValueError(f"k must be >= 1, got {limit}")
        scored = sorted(
            (
                (_distance(features, record["features"]),
                 record["key"], record)
                for record in self.records
            ),
            key=lambda entry: (entry[0], entry[1]),
        )
        predictions: List[Tuple[int, ...]] = []
        for _, _, record in scored:
            assignment = tuple(
                int(v) for v in record["assignment"]
            )
            if assignment not in predictions:
                predictions.append(assignment)
            if len(predictions) >= limit:
                break
        return tuple(predictions)

    def predict_for(
        self, workload: Any, arch: Any, k: Optional[int] = None
    ) -> Tuple[Tuple[int, ...], ...]:
        """Convenience: predict from live workload/arch objects."""
        from repro.learn.corpus import features_for

        return self.predict(features_for(workload, arch), k=k)

    def to_dict(self) -> Dict[str, Any]:
        """The persisted artifact document (pure primitives)."""
        return {
            "v": MODEL_VERSION,
            "kind": MODEL_KIND,
            "salt": self.salt,
            "k": self.k,
            "corpus": self.corpus,
            "records": [dict(r) for r in self.records],
        }


def _distance(
    query: Mapping[str, float], other: Mapping[str, float]
) -> float:
    """Squared feature distance, summed in :data:`FEATURE_ORDER`.

    The fixed summation order keeps the float deterministic; missing
    features read as 0.0 so records from older corpus versions stay
    comparable.
    """
    return sum(
        (query.get(name, 0.0) - other.get(name, 0.0)) ** 2
        for name in FEATURE_ORDER
    )


def model_cache_key(salt: Optional[str] = None) -> str:
    """The one artifact slot of the current code version.

    Addressing by salt (rather than by corpus content) means loading
    needs no directory listing -- and a model fitted by any other
    code version lands in a different slot, so stale models are
    structurally unreachable.
    """
    return stable_hash({
        "kind": MODEL_KIND,
        "salt": code_salt() if salt is None else salt,
    })


def save_model(
    predictor: KNNPredictor, cache: Optional[PlanCache] = None
):
    """Persist the fitted model into the plan cache.

    Returns the entry path.  The same corpus always writes the same
    bytes (sorted records, canonical document, atomic replace).
    """
    if cache is None:
        from repro.runner.cache import default_cache

        cache = default_cache()
    if cache is None:
        from repro.runner.errors import SweepConfigError

        raise SweepConfigError(
            "persisting a learn model needs the plan cache "
            "(REPRO_CACHE=0 disables it)"
        )
    return cache.put(
        MODEL_KIND,
        model_cache_key(predictor.salt),
        predictor.to_dict(),
        payload={"kind": MODEL_KIND, "salt": predictor.salt},
    )


def load_model(
    cache: Optional[PlanCache] = None,
) -> Optional[KNNPredictor]:
    """The current code version's fitted model, or ``None``.

    Salt is checked twice -- the slot address embeds it and the
    stored document restates it -- so a stale-salt artifact is
    ignored, never served.  Unknown schema versions are ignored the
    same way.
    """
    if cache is None:
        from repro.runner.cache import default_cache

        cache = default_cache()
    if cache is None:
        return None
    document = cache.get(MODEL_KIND, model_cache_key())
    if not isinstance(document, dict):
        return None
    if document.get("v") != MODEL_VERSION:
        return None
    if document.get("salt") != code_salt():
        return None
    records = document.get("records")
    k = document.get("k")
    if not isinstance(records, list) or not isinstance(k, int):
        return None
    try:
        return KNNPredictor(
            records,
            k=k,
            salt=document["salt"],
            corpus=document.get("corpus"),
        )
    except (KeyError, TypeError, ValueError):
        return None

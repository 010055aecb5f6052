"""Train many base models over independent subspaces and combine their votes.

Training fans out over a process pool; every model is a pure function of
(graph, master_seed, model_index, hyperparams), so results are identical
at any parallelism degree and models are always stored by index.
Aggregation sums run in fixed model-index order, keeping ensemble
decisions bit-reproducible as well.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .model import BaseModel, GnnParams, HyperParams, _posteriors, train_base_model
from .sampling import SubspaceSpec, sample_subspace

VOTING_RULES = ("hard", "soft", "weighted")

_MAGIC = b"GFOREST1\n"
_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """k trained base models plus the aggregation configuration."""

    models: tuple[BaseModel, ...]
    num_models: int
    node_fraction: float
    feature_fraction: float
    master_seed: int
    voting: str
    weights: np.ndarray

    def __post_init__(self):
        if self.num_models < 1 or len(self.models) != self.num_models:
            raise ValueError("model list does not match num_models")
        if self.voting not in VOTING_RULES:
            raise ValueError(f"unknown voting rule {self.voting!r}")
        if self.weights.shape != (self.num_models,) or np.any(self.weights < 0):
            raise ValueError("weights must be num_models non-negative reals")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        self.weights.flags.writeable = False


@dataclass(frozen=True, eq=False)
class PosteriorStack:
    """Per-model posteriors: probs[j, i] is model j's distribution for nodes[i]."""

    probs: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        if self.probs.ndim != 3:
            raise ValueError("stack must be (models, nodes, classes)")
        if self.probs.shape[1] != self.nodes.size:
            raise ValueError("stack and node index disagree")
        sums = self.probs.sum(axis=2)
        if np.any(self.probs < -1e-9) or np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("stack slices are not row-stochastic")
        self.probs.flags.writeable = False
        self.nodes.flags.writeable = False

    @property
    def num_models(self) -> int:
        return self.probs.shape[0]


def _train_one(args):
    g, spec, hp = args
    return spec.model_index, train_base_model(g, spec, hp)


def train_ensemble(g: Graph, num_models: int, node_fraction: float,
                   feature_fraction: float, hp: HyperParams, master_seed: int,
                   parallelism: int = 1, voting: str = "soft") -> EnsembleModel:
    """Train ``num_models`` base models over independently sampled subspaces.

    Deterministic in (master_seed, hp) regardless of ``parallelism`` or
    worker completion order. A degenerate subspace aborts the whole run
    with the failing model index.
    """
    if num_models < 1:
        raise ValueError("need at least one base model")
    if voting not in VOTING_RULES:
        raise ValueError(f"unknown voting rule {voting!r}")
    specs = [sample_subspace(g, node_fraction, feature_fraction, j, master_seed)
             for j in range(num_models)]

    models: list[BaseModel | None] = [None] * num_models
    if parallelism <= 1 or num_models == 1:
        for spec in specs:
            models[spec.model_index] = train_base_model(g, spec, hp)
    else:
        with ProcessPoolExecutor(max_workers=min(parallelism, num_models)) as pool:
            for idx, model in pool.map(_train_one, [(g, spec, hp) for spec in specs]):
                models[idx] = model

    if voting == "weighted":
        scores = np.array([m.train_f1 for m in models], dtype=np.float64)
        if scores.sum() <= 0:
            raise ValueError("weighted voting needs at least one model with train F1 > 0")
        weights = scores / scores.sum()
    else:
        weights = np.full(num_models, 1.0 / num_models)
    return EnsembleModel(models=tuple(models), num_models=num_models,
                         node_fraction=node_fraction, feature_fraction=feature_fraction,
                         master_seed=master_seed, voting=voting, weights=weights)


def ensemble_posteriors(e: EnsembleModel, g: Graph, nodes) -> PosteriorStack:
    """Every base model's posterior for ``nodes``, stacked by model index."""
    node_arr = np.asarray(nodes, dtype=np.int64).reshape(-1)
    return PosteriorStack(probs=_posteriors(e.models, g, node_arr), nodes=node_arr)


def decide_soft(stack: PosteriorStack, weights=None) -> np.ndarray:
    """Argmax of the weighted average of the per-model posteriors.

    ``weights`` defaults to uniform; the weighted rule passes the
    normalized train-F1 weights of ``train_ensemble``. Ties go to the
    smallest class id.
    """
    if weights is None:
        weights = np.full(stack.num_models, 1.0 / stack.num_models)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size != stack.num_models:
        raise ValueError(f"{w.size} weights for {stack.num_models} models")
    return np.einsum("k,kns->ns", w, stack.probs).argmax(axis=1)


def decide_hard(stack: PosteriorStack) -> np.ndarray:
    """Majority vote over per-model argmax decisions.

    Vote ties are broken by the higher mean confidence among the models
    that voted for each tied class; a residual exact tie falls back to
    the smallest class id.
    """
    votes = stack.probs.argmax(axis=2)  # (models, nodes)
    num_nodes = stack.nodes.size
    num_classes = stack.probs.shape[2]
    flat = votes + num_classes * np.arange(num_nodes)
    counts = np.bincount(flat.ravel(), minlength=num_nodes * num_classes)
    counts = counts.reshape(num_nodes, num_classes)
    out = counts.argmax(axis=1)
    top = counts[np.arange(num_nodes), out]
    for i in np.flatnonzero((counts == top[:, None]).sum(axis=1) > 1):
        tied = np.flatnonzero(counts[i] == top[i])
        best_class, best_conf = -1, -1.0
        for c in tied:
            voters = np.flatnonzero(votes[:, i] == c)
            conf = float(stack.probs[voters, i, c].mean())
            if conf > best_conf:
                best_class, best_conf = int(c), conf
        out[i] = best_class
    return out


def ensemble_decide(e: EnsembleModel, g: Graph, nodes) -> np.ndarray:
    """Apply the ensemble's configured voting rule to ``nodes``."""
    stack = ensemble_posteriors(e, g, nodes)
    if e.voting == "hard":
        return decide_hard(stack)
    return decide_soft(stack, e.weights)


# --- serialization -----------------------------------------------------------
#
# Flat container: magic, little-endian u64 header length, JSON header,
# then raw little-endian array payloads in a fixed order. Floats go
# through json's repr so every field round-trips bit-exactly, which also
# makes file digests usable as determinism checks.

def _model_header(m: BaseModel) -> dict:
    return {
        "model_index": m.spec.model_index,
        "node_fraction": m.spec.node_fraction,
        "feature_fraction": m.spec.feature_fraction,
        "seed": m.spec.seed,
        "train_f1": m.train_f1,
        "num_subset_nodes": int(m.spec.node_subset.size),
        "num_subset_dims": int(m.spec.feature_subset.size),
        "layer_shapes": [list(w.shape) for w in m.params.agg_weights],
    }


def _model_payload(m: BaseModel) -> list[bytes]:
    chunks = [np.ascontiguousarray(m.spec.node_subset, dtype="<i8").tobytes(),
              np.ascontiguousarray(m.spec.feature_subset, dtype="<i8").tobytes()]
    for w, s in zip(m.params.agg_weights, m.params.self_weights):
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(s, dtype="<f8").tobytes())
    return chunks


def _read_model(header: dict, buf: memoryview, offset: int) -> tuple[BaseModel, int]:
    def take(count, dtype, shape):
        nonlocal offset
        nbytes = count * 8
        arr = np.frombuffer(buf[offset:offset + nbytes], dtype=dtype).copy().reshape(shape)
        offset += nbytes
        return arr

    n_nodes = header["num_subset_nodes"]
    n_dims = header["num_subset_dims"]
    node_subset = take(n_nodes, "<i8", (n_nodes,)).astype(np.int64)
    feature_subset = take(n_dims, "<i8", (n_dims,)).astype(np.int64)
    agg, own = [], []
    for shape in header["layer_shapes"]:
        agg.append(take(shape[0] * shape[1], "<f8", tuple(shape)).astype(np.float64))
        own.append(take(shape[0] * shape[1], "<f8", tuple(shape)).astype(np.float64))
    spec = SubspaceSpec(
        model_index=header["model_index"],
        node_subset=node_subset,
        feature_subset=feature_subset,
        node_fraction=header["node_fraction"],
        feature_fraction=header["feature_fraction"],
        seed=header["seed"],
    )
    model = BaseModel(params=GnnParams(agg, own), spec=spec, train_f1=header["train_f1"])
    return model, offset


def serialize_ensemble(e: EnsembleModel) -> bytes:
    header = {
        "format_version": _FORMAT_VERSION,
        "kind": "ensemble",
        "num_models": e.num_models,
        "node_fraction": e.node_fraction,
        "feature_fraction": e.feature_fraction,
        "master_seed": e.master_seed,
        "voting": e.voting,
        "weights": [float(w) for w in e.weights],
        "models": [_model_header(m) for m in e.models],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [_MAGIC, len(blob).to_bytes(8, "little"), blob]
    for m in e.models:
        chunks.extend(_model_payload(m))
    return b"".join(chunks)


def deserialize_ensemble(data: bytes) -> EnsembleModel:
    if not data.startswith(_MAGIC):
        raise ValueError("not a graphforest model file")
    start = len(_MAGIC) + 8
    offset = start + int.from_bytes(data[len(_MAGIC):start], "little")
    header = json.loads(data[start:offset].decode("utf-8"))
    if header.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {header.get('format_version')}")
    if header.get("kind") != "ensemble":
        raise ValueError("file does not hold an ensemble")
    buf = memoryview(data)
    models = []
    for mh in header["models"]:
        model, offset = _read_model(mh, buf, offset)
        models.append(model)
    return EnsembleModel(
        models=tuple(models),
        num_models=header["num_models"],
        node_fraction=header["node_fraction"],
        feature_fraction=header["feature_fraction"],
        master_seed=header["master_seed"],
        voting=header["voting"],
        weights=np.array(header["weights"], dtype=np.float64),
    )


def save_ensemble(e: EnsembleModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_ensemble(e))


def load_ensemble(path) -> EnsembleModel:
    with open(path, "rb") as fh:
        return deserialize_ensemble(fh.read())


def ensemble_digest(e: EnsembleModel) -> str:
    """SHA-256 of the canonical serialization; stable across reruns."""
    return hashlib.sha256(serialize_ensemble(e)).hexdigest()

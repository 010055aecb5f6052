"""Evaluation arithmetic: micro-F1, overfitting gap, analytical cost model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COST_MODEL_KINDS = ("graphsage", "fastgcn", "clustergcn")


def micro_f1(pred, truth) -> float:
    """Micro-averaged F1 = 2PR/(P+R) with P = tp/(tp+fp), R = tp/(tp+fn).

    For single-label multi-class predictions each miss is one false
    positive (its predicted class) and one false negative (its true
    class), so fp = fn = n - tp and the score equals plain accuracy.
    """
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    truth = np.asarray(truth, dtype=np.int64).reshape(-1)
    if pred.size != truth.size:
        raise ValueError(f"length mismatch: {pred.size} predictions, {truth.size} labels")
    if pred.size == 0:
        raise ValueError("empty input")
    tp = int(np.count_nonzero(pred == truth))
    if tp == 0:
        return 0.0
    fp = fn = pred.size - tp
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def overfit_gap(train_f1: float, test_f1: float) -> float:
    """Training-minus-test micro-F1; negative when the model generalizes up."""
    for v in (train_f1, test_f1):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"F1 value {v} outside [0, 1]")
    return train_f1 - test_f1


@dataclass(frozen=True)
class CostEstimate:
    """Abstract unit counts (constant factor 1); ranks configurations,
    does not predict wall time."""

    model_kind: str
    time_units: float
    space_units: float


def cost_estimate(kind: str, num_layers: int, num_models: int, num_nodes: int,
                  num_edges: int, node_fraction: float, edge_keep_ratio: float,
                  feature_dim: int, feature_fraction: float, batch_size: int,
                  neighbor_cap: int) -> CostEstimate:
    """Evaluate the asymptotic time/space bodies for an ensemble of
    ``num_models`` subsampled backbones.

    With num_models=1 and all fractions 1 this reduces to the
    single-model baseline cost of the respective backbone.
    """
    if kind not in COST_MODEL_KINDS:
        raise ValueError(f"unknown cost model kind {kind!r}")
    for name, v in (("num_layers", num_layers), ("num_models", num_models),
                    ("num_nodes", num_nodes), ("num_edges", num_edges),
                    ("feature_dim", feature_dim), ("batch_size", batch_size),
                    ("neighbor_cap", neighbor_cap)):
        if v <= 0:
            raise ValueError(f"{name} must be positive")
    for name, v in (("node_fraction", node_fraction),
                    ("edge_keep_ratio", edge_keep_ratio),
                    ("feature_fraction", feature_fraction)):
        if not 0.0 < v <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1]")

    k = float(num_models)
    sub_nodes = node_fraction * num_nodes
    sub_dim = feature_fraction * feature_dim
    if kind == "graphsage":
        fanout = float(neighbor_cap) ** num_layers
        time_units = k * (fanout * sub_nodes * sub_dim ** 2)
        space_units = k * (batch_size * fanout * sub_dim + num_layers * sub_dim ** 2)
    elif kind == "fastgcn":
        time_units = k * (neighbor_cap * num_layers * sub_nodes * sub_dim ** 2)
        space_units = k * (batch_size * neighbor_cap * num_layers * sub_dim
                           + num_layers * sub_dim ** 2)
    else:  # clustergcn
        time_units = k * (num_layers * edge_keep_ratio * num_edges * sub_dim
                          + num_layers * sub_nodes * sub_dim ** 2)
        space_units = k * (batch_size * num_layers * sub_dim
                           + num_layers * sub_dim ** 2)
    return CostEstimate(model_kind=kind, time_units=time_units, space_units=space_units)

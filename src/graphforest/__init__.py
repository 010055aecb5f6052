"""graphforest: bagged ensembles of small message-passing node classifiers.

Base models are trained on randomly sampled node-induced subgraphs and
random feature subsets, then combined by averaging their posteriors
(soft voting) or by majority vote. Harnesses measure the accuracy gain,
the reduction of the train/test gap, and the robustness to
budget-constrained edge perturbation relative to a single full-graph
model.
"""

from .attacks import (AttackBudget, budget_for, greedy_confidence_attack,
                      random_flip_attack, robustness_eval)
from .datasets import (SbmConfig, generate_sbm, load_graph, load_graph_dir,
                       load_report, save_graph, save_graph_dir, save_report)
from .ensemble import (EnsembleModel, PosteriorStack, decide_hard, decide_soft,
                       deserialize_ensemble, ensemble_decide, ensemble_digest,
                       ensemble_posteriors, load_ensemble, save_ensemble,
                       serialize_ensemble, train_ensemble)
from .errors import (DatasetFormatError, DegenerateSubspaceError,
                     GraphForestError, GraphValidationError)
from .graph import (Graph, build_graph, check_invariants,
                    edge_preservation_ratio, induced_subgraph, restrict_features)
from .metrics import CostEstimate, cost_estimate, micro_f1, overfit_gap
from .model import (BaseModel, GnnParams, HyperParams, MeanAggregator, forward,
                    init_params, loss_and_grad, predict_posterior, softmax,
                    train_base_model)
from .sampling import (SubspaceSpec, derive_seed, mix64, sample_neighbors,
                       sample_subspace)

__version__ = "0.1.0"

"""Neuro-fuzzy and dense-network classifiers for the five-attribute
user knowledge-level task, with a shared evaluation pipeline.

The pieces compose bottom-up: membership functions (``fuzzy``),
dataset ingestion and splitting (``data``), the hybrid-trained rule
network (``anfis``), the backpropagation baseline (``mlp``), evaluation
metrics (``metrics``), model persistence (``model_io``), and the
``neurofuzzy`` command line (``cli``).
"""

from .anfis import (AnfisEnsemble, AnfisModel, TrainingConfig, TrainingTrace,
                    anfis_forward, build_grid_model, class_scores,
                    decode_values, ensemble_predict_classes, lse_consequents,
                    predict_classes, premise_gradient_step, premise_gradients,
                    train_hybrid, train_oaa)
from .data import (ATTRIBUTES, CLASS_LABELS, DatasetSplit, EncodedSample,
                   RawSample, binarize, class_distribution, kfold,
                   load_dataset, normalize_label, passthrough,
                   predefined_split, split_from_json, split_stratified,
                   split_to_json, to_arrays)
from .errors import (ConfigError, DataLoadError, ModelFormatError,
                     NeurofuzzyError, NumericError, SplitError,
                     UndefinedKappaError)
from .fuzzy import (MF_SHAPES, GeneralizedBell, Triangular, TwoSidedGaussian,
                    mf_from_dict, normalize_weights)
from .metrics import (BinaryConfusion, EvalReport, RocCurve, auc,
                      cap_consistent, cohen_kappa, evaluate_multiclass,
                      mwcs_cap, oaa_confusion, random_accuracy, roc_curve,
                      roc_to_csv, total_accuracy)
from .mlp import (MlpModel, MlpTrainingConfig, MlpTrainingTrace, build_mlp,
                  logsig, mlp_forward, mlp_predict, mlp_scores, sweep_hidden,
                  tansig, train_backprop)
from .model_io import load_model, model_to_json, save_model

__version__ = "0.1.0"

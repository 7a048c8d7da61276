"""Neuro-fuzzy and dense-network classifiers for the five-attribute
user knowledge-level task, with a shared evaluation pipeline.

The pieces compose bottom-up: membership functions (``fuzzy``),
dataset ingestion and splitting (``data``), the hybrid-trained rule
network (``anfis``), the backpropagation baseline (``mlp``), evaluation
metrics (``metrics``), model persistence (``model_io``), and the
``neurofuzzy`` command line (``cli``).
"""

from .anfis import *
from .data import *
from .errors import *
from .fuzzy import *
from .metrics import *
from .mlp import *
from .model_io import *

__version__ = "0.1.0"

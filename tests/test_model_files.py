"""Model files written before ``classify`` existed still load and decide alike.

The files under ``tests/models/`` were written by the library at commit
0aad030: two-input models trained for a few epochs, one per entry of
``model_io.MODEL_CLASSES``.  ``expected.json`` holds the fixed rows and
the classes and scores that commit gave for them (``predict_classes`` or
``ensemble_predict_classes`` with ``class_scores`` for ANFIS,
``mlp_predict`` with ``mlp_scores`` for the MLP).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from neurofuzzy.anfis import AnfisEnsemble, AnfisModel
from neurofuzzy.mlp import MlpModel
from neurofuzzy.model_io import load_model, model_to_json

MODELS = Path(__file__).parent / "models"
EXPECTED = json.loads((MODELS / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,cls", [("anfis_single", AnfisModel),
                                      ("anfis_binary", AnfisModel),
                                      ("anfis_oaa", AnfisEnsemble),
                                      ("mlp", MlpModel)])
def test_parent_written_file_loads_resaves_and_classifies(name, cls):
    path = MODELS / f"{name}.json"
    model = load_model(path)
    assert type(model) is cls
    assert model_to_json(model) == path.read_text(encoding="utf-8")
    classes, scores = model.classify(np.array(EXPECTED["rows"]))
    np.testing.assert_array_equal(classes, EXPECTED[name]["classes"])
    np.testing.assert_array_equal(scores, EXPECTED[name]["scores"])

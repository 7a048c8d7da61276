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

from neurofuzzy.anfis import AnfisEnsemble, AnfisModel, build_grid_model
from neurofuzzy.cli import main
from neurofuzzy.errors import ModelFormatError
from neurofuzzy.mlp import MlpModel
from neurofuzzy.model_io import load_model, model_to_json, save_model

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


def test_model_given_integers_saves_back_as_itself(tmp_path):
    """The constructors store each field as a file holds it, so a model built
    from integer arrays and a true seed writes a file that loads and re-saves
    byte for byte: the round-trip rule refuses no file the library wrote."""
    models = [
        AnfisModel(input_range=(-1, 1),
                   mf_bank=build_grid_model("triangular", input_dim=2).mf_bank,
                   consequents=np.ones((4, 3), dtype=int), seed=True),
        MlpModel(w_hidden=np.ones((2, 2), dtype=int), b_hidden=np.zeros(2, dtype=int),
                 w_out=np.ones((4, 2), dtype=int), b_out=np.zeros(4, dtype=int),
                 seed=True),
    ]
    for model in models:
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert model_to_json(load_model(path)) == text


@pytest.mark.parametrize("shape,param", [("gbell", "b"), ("gauss2", "sigma_left")])
def test_membership_parameter_true_is_refused(shape, param, tmp_path, capsys):
    """A record stores its parameters as floats, so a ``true`` loads as 1.0,
    saves back as ``1.0`` and is refused (exit 5), like any value that
    does not save back as the file holds it."""
    payload = build_grid_model(shape).to_dict()
    payload["mf_bank"][0][0][param] = True
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="'mf_bank' does not save back"):
        load_model(path)
    dataset = Path(__file__).parents[1] / "data" / "ukm_synthetic.csv"
    assert main(["evaluate", str(path), "--dataset", str(dataset)]) == 5
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed anfis model")

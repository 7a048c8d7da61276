"""Model persistence: versioned JSON, byte-identical round-trips.

One file format per model kind, all JSON with a ``format_version``
field.  Serialization uses plain dicts built in a fixed order and
``json.dumps(indent=2)``, so save -> load -> save reproduces the file
byte for byte.  A file's ``kind`` and ``output_mode`` pick its class
from ``MODEL_CLASSES``; the class's ``from_dict`` checks the rest.
Anything structurally wrong with a model file raises
``ModelFormatError`` so callers can map it to a dedicated exit code.
"""

from __future__ import annotations

import json

from .anfis import MODEL_FORMAT_VERSION, AnfisEnsemble, AnfisModel
from .errors import ModelFormatError
from .mlp import MlpModel

__all__ = ["save_model", "load_model", "model_to_json"]

# (kind, output_mode) -> class; an MLP file has no output_mode
MODEL_CLASSES = {("anfis", "single"): AnfisModel, ("anfis", "binary"): AnfisModel,
                 ("anfis", "oaa"): AnfisEnsemble, ("mlp", None): MlpModel}


def model_to_json(model):
    """Serialized form, ending in a newline."""
    return json.dumps(model.to_dict(), indent=2) + "\n"


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path):
    """Load any supported model file; raises ModelFormatError on trouble."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"{path}: cannot read model file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")

    version = raw.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r} "
            f"(this build reads version {MODEL_FORMAT_VERSION})")
    kind, mode = raw.get("kind"), raw.get("output_mode")
    try:
        cls = MODEL_CLASSES[kind, mode]
    except (KeyError, TypeError):            # TypeError: an unhashable value
        detail = "" if mode is None else f" with output_mode {mode!r}"
        raise ModelFormatError(
            f"{path}: unknown model kind {kind!r}{detail}") from None
    try:
        return cls.from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed {kind} model ({exc})") from exc

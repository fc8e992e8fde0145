"""Versioned binary model checkpoints.

Layout: magic ``CSK1`` | version u32 | header-length u64 | JSON header |
float64 little-endian payload. The header lists parameter names/shapes in
payload order, batch-norm state, and the model configuration needed to
rebuild the network. Optimizer state is not stored: a checkpoint holds a
trained model for inference, not a resumable run.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .network import CellScapeModel, ModelConfig

MAGIC = b"CSK1"
VERSION = 2


def save_checkpoint(path, model: CellScapeModel) -> None:
    names = list(model.params)
    bn_names = list(model.bn_states)
    header = {
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "bn": [
            {
                "name": n,
                "momentum": model.bn_states[n].momentum,
                "eps": model.bn_states[n].eps,
                "size": int(model.bn_states[n].running_mean.size),
            }
            for n in bn_names
        ],
        "config": dataclasses.asdict(model.cfg),
        "model": {"n_genes": model.n_genes, "q": model.q},
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].values, dtype="<f8").tobytes())
        for n in bn_names:
            fh.write(np.ascontiguousarray(model.bn_states[n].running_mean, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(model.bn_states[n].running_var, dtype="<f8").tobytes())


def load_checkpoint(path) -> CellScapeModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic {magic!r})")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(header_len).decode("utf-8"))

        cfg_fields = dict(header["config"])
        cfg_fields["cnn_channels"] = tuple(cfg_fields.get("cnn_channels", ()))
        cfg = ModelConfig(**cfg_fields)
        model = CellScapeModel(header["model"]["n_genes"], header["model"]["q"], cfg)

        def read_array(shape):
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError(f"{path}: truncated checkpoint payload")
            return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

        names = [entry["name"] for entry in header["params"]]
        shapes = {entry["name"]: tuple(entry["shape"]) for entry in header["params"]}
        if set(names) != set(model.params):
            raise ValueError(f"{path}: checkpoint parameters do not match the configuration")
        for n in names:
            built = model.params[n].shape
            if shapes[n] != built:
                raise ValueError(
                    f"{path}: parameter {n} has shape {list(shapes[n])} in the checkpoint "
                    f"but {list(built)} in the model its configuration builds"
                )
            model.params[n].values = read_array(shapes[n])
        for entry in header["bn"]:
            state = model.bn_states[entry["name"]]
            state.momentum = entry["momentum"]
            state.eps = entry["eps"]
            state.running_mean = read_array((entry["size"],))
            state.running_var = read_array((entry["size"],))
    return model

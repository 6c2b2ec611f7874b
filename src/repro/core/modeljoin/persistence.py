"""Restart-warm model cache: persist finalized builds with the catalog.

The model cache (PR 1) amortizes ModelJoin builds across queries of one
process; this module amortizes them across *restarts*.  At checkpoint
time every host-resident finalized build is serialized next to the
database's data files (``models/`` under the storage root): the weight
arrays go into one ``.npz`` per entry, the cache keys and layer
metadata into an ``INDEX.json``.  Reopening the database loads the
entries straight back into the fresh cache — the persisted catalog
restores each table's ``uid``/``version`` (see
:mod:`repro.db.storage.store`), so the restored keys match and the
first ModelJoin query after a restart is a cache *hit*, not a rebuild.

Device-resident builds are never persisted (device buffers are process
state); the host build they were uploaded from is, and the device
upload is cheap relative to the relational build it replaces.

Both the per-entry files and the index are written via write-to-temp +
rename, so a crash mid-save leaves the previous consistent warm set.
An entry file's name derives from its cache key (table uid and
version), so a save skips the files this object already wrote or
loaded, and rewrites the index only when the entry set changed: the
checkpoint of a database that built nothing new writes nothing here.

Older warm sets keyed entries on two more fields (``vector_size``,
``replicate_bias``) and stored each layer's replicated bias as an
``l{i}_bias_matrix`` array; loading drops both, so a database
checkpointed by those versions reopens with its builds still warm.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.core.modeljoin.builder import (
    BuiltModel,
    DenseLayerWeights,
    LstmLayerWeights,
)
from repro.core.modeljoin.cache import CacheKey, ModelCache
from repro.db.storage.checkpoint import atomic_write_json

INDEX_NAME = "INDEX.json"

_KEY_FIELDS = {field.name for field in dataclasses.fields(CacheKey)}


def _entry_file_name(key: CacheKey) -> str:
    digest = hashlib.sha1(
        json.dumps(
            dataclasses.asdict(key), sort_keys=True
        ).encode("utf-8")
    ).hexdigest()[:16]
    return f"model-{digest}.npz"


def _serialize_layers(built: BuiltModel):
    """(layer metadata list, named arrays) or None if unsupported."""
    metadata: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for index, layer in enumerate(built.layers):
        prefix = f"l{index}_"
        if isinstance(layer, DenseLayerWeights):
            metadata.append(
                {
                    "kind": "dense",
                    "activation": layer.activation,
                    "units": layer.units,
                }
            )
            arrays[prefix + "kernel"] = layer.kernel
            arrays[prefix + "bias"] = layer.bias
        elif isinstance(layer, LstmLayerWeights):
            metadata.append(
                {
                    "kind": "lstm",
                    "activation": layer.activation,
                    "recurrent_activation": layer.recurrent_activation,
                    "units": layer.units,
                    "time_steps": layer.time_steps,
                }
            )
            arrays[prefix + "kernel"] = layer.kernel
            arrays[prefix + "recurrent_kernel"] = layer.recurrent_kernel
            arrays[prefix + "bias"] = layer.bias
        else:  # unknown layer type (test stubs): skip the entry
            return None
    return metadata, arrays


def _deserialize_layers(metadata: list[dict], data) -> list:
    layers = []
    for index, layer in enumerate(metadata):
        prefix = f"l{index}_"
        if layer["kind"] == "dense":
            layers.append(
                DenseLayerWeights(
                    kernel=data[prefix + "kernel"],
                    bias=data[prefix + "bias"],
                    activation=layer["activation"],
                    units=int(layer["units"]),
                )
            )
        else:
            layers.append(
                LstmLayerWeights(
                    kernel=data[prefix + "kernel"],
                    recurrent_kernel=data[prefix + "recurrent_kernel"],
                    bias=data[prefix + "bias"],
                    activation=layer["activation"],
                    recurrent_activation=layer["recurrent_activation"],
                    units=int(layer["units"]),
                    time_steps=int(layer["time_steps"]),
                )
            )
    return layers


class ModelCachePersistence:
    """Saves/restores a :class:`ModelCache` under a storage directory."""

    def __init__(self, cache: ModelCache, directory: str | Path):
        self.cache = cache
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: entry files this object wrote or loaded (same name, same
        #: content: the name hashes the key)
        self._stored: set[str] = set()
        #: the entry files the index on disk lists; None until known
        self._indexed: set[str] | None = None

    def save(self) -> int:
        """Persist every host-resident build; returns the entry count."""
        index_entries: list[dict] = []
        for key, built in self.cache.entries():
            if getattr(built, "on_device", False):
                continue
            serialized = _serialize_layers(built)
            if serialized is None:
                continue
            metadata, arrays = serialized
            file_name = _entry_file_name(key)
            path = self.directory / file_name
            if file_name not in self._stored or not path.exists():
                temp = self.directory / (file_name + ".tmp")
                with open(temp, "wb") as handle:
                    np.savez(handle, **arrays)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, path)
                self._stored.add(file_name)
            index_entries.append(
                {
                    "key": dataclasses.asdict(key),
                    "file": file_name,
                    "input_width": built.input_width,
                    "output_width": built.output_width,
                    "time_steps": built.time_steps,
                    "layers": metadata,
                }
            )
        keep = {entry["file"] for entry in index_entries}
        if keep != self._indexed:
            atomic_write_json(
                self.directory / INDEX_NAME, {"entries": index_entries}
            )
            self._indexed = keep
            for path in self.directory.glob("model-*.npz"):
                if path.name not in keep:
                    path.unlink()
        return len(index_entries)

    def load(self) -> int:
        """Warm the cache from disk; returns entries restored."""
        index_path = self.directory / INDEX_NAME
        if not index_path.exists():
            return 0
        with open(index_path, encoding="utf-8") as handle:
            index = json.load(handle)
        entries = index.get("entries", [])
        self._indexed = {entry["file"] for entry in entries}
        restored = 0
        for entry in entries:
            path = self.directory / entry["file"]
            if not path.exists():
                continue
            with np.load(path) as data:
                layers = _deserialize_layers(entry["layers"], data)
            built = BuiltModel(
                layers=layers,
                input_width=int(entry["input_width"]),
                output_width=int(entry["output_width"]),
                time_steps=int(entry["time_steps"]),
                on_device=False,
            )
            key = {
                name: value
                for name, value in entry["key"].items()
                if name in _KEY_FIELDS
            }
            self.cache.put(CacheKey(**key), built)
            self._stored.add(entry["file"])
            restored += 1
        return restored

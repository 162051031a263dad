"""Property-based fuzzing of every reader of outside input.

Each reader is fed valid bytes after truncation, bit flips or a hostile
header, and may only reject them with its typed error (a `ValueError`
also counts: the CLI reports it).  Checkpoint headers are re-signed with
the CRC-32 after mutation, so the fuzz reaches the config parser instead
of stopping at the checksum.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborgen.model import (CheckpointError, init_model, load_checkpoint,
                               save_checkpoint)
from neighborgen.sample import SamplingConfig
from neighborgen.tokens_io import (TokenFormatError, grid_from_json,
                                   grid_to_json, load_tokens, save_tokens)
from neighborgen.train import TrainConfig
from tests.test_model import signed_checkpoint, small_config
from tests.test_train import tiny_train_config

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)
ALLOWED = (TokenFormatError, CheckpointError, ValueError)

edge = st.sampled_from([None, True, False, 0, -1, 2**64, 10**5, 16.0, 2.5,
                        math.inf, -math.inf, math.nan, "", "x"])
scalar = st.one_of(edge, st.integers(), st.floats(), st.text(max_size=4))
hostile = st.one_of(
    scalar, st.lists(st.one_of(edge, st.integers(-1, 10**6)), max_size=4),
    st.dictionaries(st.text(max_size=3), scalar, max_size=2))


def mutate(blob: bytes, data) -> bytes:
    """Truncate `blob` or flip some of its bits, as hypothesis chooses."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        i = data.draw(st.integers(0, len(out) - 1), label="byte")
        out[i] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    return bytes(out)


def hostile_fields(d: dict, data, label: str):
    """`d` with some fields replaced by hostile JSON values, or now and
    then a hostile value in place of the whole object."""
    if data.draw(st.integers(0, 9), label=f"{label} replaced") == 0:
        return data.draw(hostile, label=label)
    d = dict(d)
    keys = sorted(d) + ["unknown"]
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1,
                                  max_size=3), label=label):
        d[key] = data.draw(hostile, label=key)
    return d


def read_or_reject(read, *args):
    try:
        read(*args)
    except ALLOWED:
        pass


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def ckpt_blob(work):
    path = work / "valid.ckpt"
    save_checkpoint(init_model(small_config(dims=(2, 3)), 0), path)
    return path.read_bytes()


@FUZZ
@given(dims=st.sampled_from([(2, 3), (1, 4), (2, 2, 3)]), data=st.data())
def test_load_tokens(work, dims, data):
    path = work / "g.tokens"
    save_tokens(path, np.arange(int(np.prod(dims))).reshape(dims))
    blob = path.read_bytes()
    if data.draw(st.booleans(), label="hostile header"):
        words = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                                   max_size=4), label="header words")
        blob = (blob[:8] + b"".join(w.to_bytes(4, "little") for w in words)
                + blob[8 + 4 * len(words):])
    else:
        blob = mutate(blob, data)
    path.write_bytes(blob)
    read_or_reject(load_tokens, path)


@FUZZ
@given(data=st.data())
def test_load_checkpoint(work, ckpt_blob, data):
    path = work / "m.ckpt"
    if data.draw(st.booleans(), label="hostile header"):
        cfg_len = int.from_bytes(ckpt_blob[8:12], "little")
        header = ckpt_blob[12:12 + cfg_len]
        tensors = ckpt_blob[12 + cfg_len:-4]
        if data.draw(st.booleans(), label="hostile fields"):
            d = hostile_fields(json.loads(header), data, "fields")
            header = json.dumps(d).encode()
        else:
            header = mutate(header, data)
        cut = data.draw(st.integers(0, len(tensors)), label="tensor bytes")
        blob = signed_checkpoint(header, tensors[:cut])
    else:
        blob = mutate(ckpt_blob, data)
    path.write_bytes(blob)
    read_or_reject(load_checkpoint, path)


@FUZZ
@given(data=st.data())
def test_grid_from_json(data):
    cfg = SamplingConfig(seed=3)
    text = grid_to_json(np.arange(6).reshape(2, 3), 8, 1, cfg)
    if data.draw(st.booleans(), label="hostile fields"):
        text = json.dumps(hostile_fields(json.loads(text), data, "fields"))
    else:
        text = mutate(text.encode(), data).decode("latin-1")
    read_or_reject(grid_from_json, text)


@FUZZ
@given(data=st.data())
def test_train_config_from_json(data):
    d = json.loads(tiny_train_config(steps=2).to_json())
    kind = data.draw(st.sampled_from(["top", "model", "data", "bytes"]),
                     label="kind")
    if kind == "top":
        d = hostile_fields(d, data, "fields")
    elif kind != "bytes":
        d[kind] = hostile_fields(d[kind], data, kind)
    text = json.dumps(d)
    if kind == "bytes":
        text = mutate(text.encode(), data).decode("latin-1")
    read_or_reject(TrainConfig.from_json, text)


@FUZZ
@given(data=st.data())
def test_train_config_construction(data):
    base = tiny_train_config(steps=2)
    fields = ["batch_size", "total_steps", "learning_rate", "warmup_steps",
              "eval_interval", "num_train_samples", "num_eval_samples",
              "uncond_prob", "seed"]
    kw = {k: data.draw(hostile, label=k) for k in
          data.draw(st.lists(st.sampled_from(fields), min_size=1,
                             max_size=3, unique=True), label="fields")}
    try:
        TrainConfig(model=base.model, data=base.data, **{
            k: getattr(base, k) for k in fields if k not in kw}, **kw)
    except ValueError:
        pass

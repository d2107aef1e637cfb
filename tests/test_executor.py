"""Executor lifetime: a crashing, quitting or confused party, and the
network and model shared by bundles."""

import dataclasses
import itertools
import math
import threading
import time

import numpy as np
import pytest

from pisim.field import FIELD_MODULUS, decode_signed
from pisim.netarch import DATASETS, MODELS, InvalidArch, build_preset, compile_network
from pisim.protocol import (
    Channel,
    EventKind,
    ProtocolHang,
    gen_weights,
    plaintext_forward,
    run_offline,
    run_online,
    sample_input,
)
from pisim.protocol import executor

TOY = build_preset("toy_cnn", "cifar100")
TOY8 = build_preset("toy_cnn", "toy8")


class Crash(RuntimeError):
    pass


def _crash(*args, **kwargs):
    raise Crash("party crashed")


def _quit(*args, **kwargs):
    """A party that returns at once without sending anything."""
    return
    yield


def _step(receive):
    """Resume a receive once: its (event, payload), or None if it yielded."""
    try:
        next(receive)
    except StopIteration as stop:
        return stop.value
    return None


def test_receive_delivers_in_order_and_yields_on_an_empty_mailbox():
    ch = Channel()
    ch.send("client", EventKind.KEYS, "k", 1)
    ch.send("client", EventKind.LABELS, "l", 1)
    assert _step(ch.receive("server", expect=EventKind.KEYS))[1] == "k"
    assert _step(ch.receive("server"))[1] == "l"
    waiting = ch.receive("server")
    assert _step(waiting) is None
    assert _step(waiting) is None
    ch.send("client", EventKind.OT_MESSAGE, "o", 1)
    assert _step(waiting)[1] == "o"
    assert _step(ch.receive("client")) is None  # nothing was sent to the client


def test_wrong_message_kind_raises_protocol_hang(monkeypatch):
    def send_labels_first(state, ch):
        ch.send("client", EventKind.LABELS, None, 1)
        yield from ch.receive("client")

    monkeypatch.setattr(executor, "client_offline", send_labels_first)
    with pytest.raises(ProtocolHang, match="expected keys, got labels"):
        run_offline(TOY, "sg", 0)


def test_deadlock_raises_protocol_hang_at_once(monkeypatch):
    monkeypatch.setattr(executor, "client_offline", lambda state, ch: ch.receive("client"))
    monkeypatch.setattr(executor, "server_offline", lambda state, ch: ch.receive("server"))
    with pytest.raises(ProtocolHang, match="client and server blocked"):
        run_offline(TOY, "sg", 0)


def test_offline_party_returning_early_hangs_at_once(monkeypatch):
    monkeypatch.setattr(executor, "server_offline", _quit)
    t0 = time.perf_counter()
    with pytest.raises(ProtocolHang, match="client blocked"):
        run_offline(TOY, "sg", 0)
    assert time.perf_counter() - t0 < 1.0


def test_online_party_returning_early_hangs_at_once(monkeypatch):
    bundle = run_offline(TOY, "cg", 0)
    monkeypatch.setattr(executor, "client_online", _quit)
    t0 = time.perf_counter()
    with pytest.raises(ProtocolHang, match="server blocked"):
        run_online(bundle, sample_input(TOY, 0))
    assert time.perf_counter() - t0 < 1.0


def test_party_crashing_mid_phase_fails_with_its_own_error(monkeypatch):
    def crash_after_keys(state, ch):
        yield from ch.receive("server")
        raise Crash("party crashed")

    monkeypatch.setattr(executor, "server_offline", crash_after_keys)
    with pytest.raises(Crash):
        run_offline(TOY, "sg", 0)


@pytest.mark.parametrize("party", ["server_offline", "client_offline"])
def test_offline_party_crash_fails_at_once(monkeypatch, party):
    monkeypatch.setattr(executor, party, _crash)
    threads = threading.active_count()
    t0 = time.perf_counter()
    with pytest.raises(Crash):
        run_offline(TOY, "sg", 0)
    assert time.perf_counter() - t0 < 1.0
    assert threading.active_count() == threads


@pytest.mark.parametrize("party", ["client_online", "server_online"])
def test_online_party_crash_fails_at_once(monkeypatch, party):
    bundle = run_offline(TOY, "cg", 0)
    monkeypatch.setattr(executor, party, _crash)
    threads = threading.active_count()
    t0 = time.perf_counter()
    with pytest.raises(Crash):
        run_online(bundle, sample_input(TOY, 0))
    assert time.perf_counter() - t0 < 1.0
    assert threading.active_count() == threads


def test_bundles_share_one_compiled_network_per_arch():
    a = run_offline(TOY, "sg", 0)
    b = run_offline(TOY, "cg", 3)
    compiled = a.client_state.compiled
    assert b.client_state.compiled is compiled
    assert a.server_state.compiled is compiled
    assert run_offline(TOY8, "sg", 0).client_state.compiled is not compiled


def test_shared_weights_are_read_only():
    weights = run_offline(TOY, "sg", 0).server_state.weights
    for w, b in weights.values():
        with pytest.raises(ValueError):
            w.matrix.reshape(-1)[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.matrix = w.matrix.copy()
        with pytest.raises(ValueError):
            b[0] = 1
    with pytest.raises(TypeError):
        weights[0] = weights[0]


def _largest_fan_ins():
    """The largest fan-in of each preset x dataset that validates."""
    fan_ins = {}
    datasets = sorted({d.name for d in DATASETS.values()})
    for model, dataset in itertools.product(MODELS, datasets):
        try:
            units = compile_network(build_preset(model, dataset)).units
        except InvalidArch:
            continue
        fan_ins[model, dataset] = max(math.prod(op.layer.weight_shape[1:]) for unit in units
                                      for op in unit.ops if op.weight_key is not None)
    return fan_ins


def test_no_shipped_network_reaches_the_kernel_bound():
    # gen_weights draws |w| <= 3, so `verify --force` on a shipped network
    # never trips prepare_weights' guard
    fan_ins = _largest_fan_ins()
    assert max(fan_ins.values()) == fan_ins["toy_cnn", "imagenet"] == 100_352
    for fan_in in fan_ins.values():
        assert 3 * (FIELD_MODULUS - 1) * fan_in < 2**53


@pytest.mark.parametrize("arch", [TOY, TOY8], ids=lambda a: a.dataset.name)
def test_toy_weights_are_one_float64_matrix(arch):
    for w, _ in run_offline(arch, "sg", 0).server_state.weights.values():
        assert [f.name for f in dataclasses.fields(w)] == ["shape", "matrix"]
        assert w.matrix.dtype == np.float64 and not w.matrix.flags.writeable
        assert w.matrix.shape == (w.shape[0], math.prod(w.shape[1:]))


def test_bundles_share_one_model_per_arch_and_seed():
    a = run_offline(TOY, "sg", 0).server_state.weights
    b = run_offline(TOY, "cg", 0).server_state.weights
    c = run_offline(TOY, "sg", 1).server_state.weights
    assert a.keys() == b.keys() == c.keys()
    for key in a:
        assert a[key][0] is b[key][0] and a[key][1] is b[key][1]
        assert a[key][0] is not c[key][0]
        assert not np.array_equal(a[key][0].matrix, c[key][0].matrix)


@pytest.mark.parametrize("seed", [0, 4])
def test_shared_model_is_the_generated_model(seed):
    bundle = run_offline(TOY, "sg", seed)
    x = sample_input(TOY, seed, 1)
    # the prepared matrix is re-centred, so it holds the signed weights
    decoded = {k: (w.matrix.astype(np.int64).reshape(w.shape), decode_signed(b))
               for k, (w, b) in bundle.server_state.weights.items()}
    expected = plaintext_forward(TOY, gen_weights(TOY, seed), x[None])[0]
    assert np.array_equal(plaintext_forward(TOY, decoded, x[None])[0], expected)
    assert np.array_equal(run_online(bundle, x), expected)

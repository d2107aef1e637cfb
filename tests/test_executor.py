"""Executor lifetime: a crashing party, and the model shared by bundles."""

import threading
import time

import numpy as np
import pytest

from pisim.field import decode_signed
from pisim.netarch import build_preset
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


class Crash(RuntimeError):
    pass


def _crash(*args, **kwargs):
    raise Crash("party crashed")


def test_abort_wakes_a_blocked_receive():
    ch = Channel(timeout=30.0)
    ch.send("client", EventKind.KEYS, "k", 1)
    waiter = threading.Thread(target=lambda: time.sleep(0.05) or ch.abort())
    waiter.start()
    t0 = time.perf_counter()
    # messages sent before the abort still arrive in order
    assert ch.receive("server", expect=EventKind.KEYS)[1] == "k"
    with pytest.raises(ProtocolHang):
        ch.receive("server")
    with pytest.raises(ProtocolHang):
        ch.receive("server")
    assert time.perf_counter() - t0 < 1.0
    waiter.join(timeout=5.0)
    assert not waiter.is_alive()


@pytest.mark.parametrize("party", ["server_offline", "client_offline"])
def test_offline_party_crash_fails_at_once(monkeypatch, party):
    monkeypatch.setattr(executor, party, _crash)
    threads = threading.active_count()
    t0 = time.perf_counter()
    with pytest.raises(Crash):
        run_offline(TOY, "sg", 0)  # default 30 s receive timeout
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


def test_shared_weights_are_read_only():
    weights = run_offline(TOY, "sg", 0).server_state.weights
    for w, b in weights.values():
        with pytest.raises(ValueError):
            w.reshape(-1)[0] = 1
        with pytest.raises(ValueError):
            b[0] = 1
    with pytest.raises(TypeError):
        weights[0] = weights[0]


def test_bundles_share_one_model_per_arch_and_seed():
    a = run_offline(TOY, "sg", 0).server_state.weights
    b = run_offline(TOY, "cg", 0).server_state.weights
    c = run_offline(TOY, "sg", 1).server_state.weights
    assert a.keys() == b.keys() == c.keys()
    for key in a:
        assert a[key][0] is b[key][0] and a[key][1] is b[key][1]
        assert a[key][0] is not c[key][0]
        assert not np.array_equal(a[key][0], c[key][0])


@pytest.mark.parametrize("seed", [0, 4])
def test_shared_model_is_the_generated_model(seed):
    bundle = run_offline(TOY, "sg", seed)
    x = sample_input(TOY, seed, 1)
    decoded = {k: (decode_signed(w), decode_signed(b))
               for k, (w, b) in bundle.server_state.weights.items()}
    expected = plaintext_forward(TOY, gen_weights(TOY, seed), x)
    assert np.array_equal(plaintext_forward(TOY, decoded, x), expected)
    assert np.array_equal(run_online(bundle, x).logits, expected)

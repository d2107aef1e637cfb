"""Masked two-party execution checked against the plaintext oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protocol_oracle import sample_elements
from pisim.costmodel import CommInputs, Protocol, offline_comm, online_comm, storage_deltas
from pisim.costmodel.comm import GC_BLOB_BYTES_PER_RELU, INPUT_LABEL_BYTES_PER_RELU
from pisim.field import FIELD_MODULUS, encode
from pisim.netarch import (
    DATASETS,
    MODELS,
    AvgPool,
    Conv,
    DatasetSpec,
    FC,
    Flatten,
    InvalidArch,
    NetworkArch,
    ReLU,
    SkipConnection,
    TOY8,
    build_preset,
    count,
    validate,
)
from pisim.protocol import (
    BundleConsumed,
    BundleMismatch,
    Channel,
    EventKind,
    GUARD_MAX_RELUS,
    SealKey,
    VerifyGuard,
    WrongKey,
    draw_tapes,
    export_transcript,
    gen_weights,
    plaintext_forward,
    run_offline,
    run_online,
    sample_input,
    seal,
    unseal,
    verify_against_plaintext,
)
from pisim.protocol import executor
from pisim.protocol.sealed import SealedVector
from pisim.protocol import verify as verify_module

SG = Protocol.SERVER_GARBLER
CG = Protocol.CLIENT_GARBLER
P = FIELD_MODULUS

TOY = build_preset("toy_cnn", "cifar100")


def mini_res() -> NetworkArch:
    """Small residual net with an identity skip and a strided projection."""
    ds = DatasetSpec(3, 8, 8, 5, "mini")
    layers = (
        Conv(3, 4, 3, padding=1),
        ReLU(),
        Conv(4, 4, 3, padding=1),
        ReLU(),
        Conv(4, 8, 3, stride=2, padding=1),
        ReLU(),
        AvgPool(),
        Flatten(),
        FC(8, 5),
    )
    skips = (
        SkipConnection(source=1, merge=2),
        SkipConnection(source=3, merge=4, conv=Conv(4, 8, 1, stride=2)),
    )
    arch = NetworkArch("mini_res", ds, layers, skips)
    validate(arch)
    return arch


MINI = mini_res()


def verify_block(arch: NetworkArch) -> int:
    """Trials in one block of verify_against_plaintext on arch: as many as
    keep their masks and shares within BLOCK_ELEMENTS, at least one."""
    c = count(arch)
    return max(1, verify_module.BLOCK_ELEMENTS // (c.mask_in_elems + c.mask_out_elems))


# toy_cnn whose logits pass through a final relu, a masked point like any other
TOY_RELU = NetworkArch("toy_relu", TOY8, build_preset("toy_cnn", TOY8).layers + (ReLU(),))


@pytest.mark.parametrize("arch", [TOY, MINI], ids=["toy_cnn", "mini_res"])
@pytest.mark.parametrize("proto", [SG, CG], ids=["sg", "cg"])
def test_exact_against_oracle(arch, proto):
    for seed in range(4):
        bundle = run_offline(arch, proto, seed=seed)
        x = sample_input(arch, seed=seed)
        logits = run_online(bundle, x)
        expected = plaintext_forward(arch, gen_weights(arch, seed), x[None])[0]
        assert np.array_equal(logits, expected), f"seed {seed}"


@pytest.mark.parametrize("arch", [TOY, MINI], ids=["toy_cnn", "mini_res"])
def test_protocols_agree_on_logits(arch):
    for seed in (0, 3):
        x = sample_input(arch, seed=seed)
        sg = run_online(run_offline(arch, SG, seed=seed), x)
        cg = run_online(run_offline(arch, CG, seed=seed), x)
        assert np.array_equal(sg, cg)


@pytest.mark.parametrize("arch", [TOY, MINI], ids=["toy_cnn", "mini_res"])
@pytest.mark.parametrize("proto", [SG, CG], ids=["sg", "cg"])
def test_share_sums_reconstruct_preactivations(arch, proto):
    seed = 11
    bundle = run_offline(arch, proto, seed=seed)
    x = sample_input(arch, seed=seed)
    run_online(bundle, x)
    trace: dict[int, np.ndarray] = {}
    plaintext_forward(arch, gen_weights(arch, seed), x[None], trace=trace)
    server = bundle.server_state
    client = bundle.client_state
    points = client.compiled.relu_points
    assert len(points) == len(trace)
    for j, pt in enumerate(points):
        s = server.probe_shares[pt.index].astype(np.int64).ravel()
        if proto is SG:
            c = client.shares[pt.index].astype(np.int64).ravel()
        else:
            c = server.gadgets[pt.index]._client_share.astype(np.int64).ravel()
        rec = (c + s) % P
        assert np.array_equal(rec, encode(trace[j]).ravel()), f"point {pt.index}"


@pytest.mark.parametrize("arch", [TOY, MINI, TOY_RELU], ids=["toy_cnn", "mini_res", "toy_relu"])
@pytest.mark.parametrize("proto", [SG, CG], ids=["sg", "cg"])
def test_transcript_bytes_match_comm_model(proto, arch):
    inputs = CommInputs.from_arch(arch)
    bundle = run_offline(arch, proto, seed=2)
    run_online(bundle, sample_input(arch, seed=2))
    off = offline_comm(proto, inputs)
    on = online_comm(proto, inputs)
    assert bundle.transcript.total_bytes("offline", "c2s") == off.c2s_bytes
    assert bundle.transcript.total_bytes("offline", "s2c") == off.s2c_bytes
    assert bundle.transcript.total_bytes("online", "c2s") == on.c2s_bytes
    assert bundle.transcript.total_bytes("online", "s2c") == on.s2c_bytes


@pytest.mark.parametrize("arch", [TOY, MINI, TOY_RELU], ids=["toy_cnn", "mini_res", "toy_relu"])
@pytest.mark.parametrize("proto", [SG, CG], ids=["sg", "cg"])
def test_stored_bytes_match_storage_model(proto, arch):
    inputs = CommInputs.from_arch(arch)
    bundle = run_offline(arch, proto, seed=2)
    d = storage_deltas(proto, inputs)
    assert bundle.client_stored_bytes == d.client_received_bytes + d.client_self_bytes
    assert bundle.server_stored_bytes == d.server_received_bytes + d.server_self_bytes
    # each half on its own, so a byte moved between what a party receives
    # and what it generates fails too
    assert bundle.transcript.stored_bytes("client") == d.client_received_bytes
    assert bundle.transcript.stored_bytes("server") == d.server_received_bytes
    assert bundle.client_state.self_stored_bytes == d.client_self_bytes
    assert bundle.server_state.self_stored_bytes == d.server_self_bytes


def test_garbled_circuits_travel_toward_evaluator():
    sg = run_offline(TOY, SG, seed=0).transcript
    cg = run_offline(TOY, CG, seed=0).transcript
    sg_gc = [e for e in sg.events if e.kind is EventKind.GARBLED_CIRCUIT]
    cg_gc = [e for e in cg.events if e.kind is EventKind.GARBLED_CIRCUIT]
    assert sg_gc and all(e.direction == "s2c" for e in sg_gc)
    assert cg_gc and all(e.direction == "c2s" for e in cg_gc)
    # the evaluator must hold the blob until the online phase
    assert all(e.stored_by_receiver for e in sg_gc + cg_gc)


@pytest.mark.parametrize("arch", [TOY, MINI], ids=["toy_cnn", "mini_res"])
@pytest.mark.parametrize("proto", [SG, CG], ids=["sg", "cg"])
def test_each_relu_point_ships_its_circuit_then_its_labels(proto, arch):
    """One offline shipment per ReLU point, in point order: its garbled
    circuit immediately followed by its input labels, both from garbler
    to evaluator under the point's label, stored by the evaluator, and
    sized per ReLU of the point."""
    bundle = run_offline(arch, proto, seed=0)
    events = bundle.transcript.events
    points = bundle.client_state.compiled.relu_points
    direction = "s2c" if proto is SG else "c2s"
    circuits = [j for j, e in enumerate(events) if e.kind is EventKind.GARBLED_CIRCUIT]
    assert len(circuits) == len(points)
    assert sum(e.kind is EventKind.LABELS for e in events) == len(points)
    for j, pt in zip(circuits, points):
        circuit, labels = events[j], events[j + 1]
        assert labels.kind is EventKind.LABELS
        for e in (circuit, labels):
            assert e.phase == "offline" and e.direction == direction
            assert e.stored_by_receiver and e.label == f"point{pt.index}"
        assert circuit.nbytes == GC_BLOB_BYTES_PER_RELU * pt.elems
        assert labels.nbytes == INPUT_LABEL_BYTES_PER_RELU * pt.elems


def test_ot_setup_stored_only_by_garbling_client():
    sg = run_offline(TOY, SG, seed=0).transcript
    cg = run_offline(TOY, CG, seed=0).transcript

    def stored_ot(t):
        return [e for e in t.events if e.kind is EventKind.OT_MESSAGE and e.stored_by_receiver]

    assert not stored_ot(sg)
    assert stored_ot(cg)


def test_transcript_deterministic(tmp_path):
    paths = []
    for run in range(2):
        bundle = run_offline(TOY, CG, seed=9)
        run_online(bundle, sample_input(TOY, seed=9))
        p = tmp_path / f"t{run}.jsonl"
        export_transcript(bundle.transcript, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    lines = paths[0].decode().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert {"seq", "phase", "direction", "kind", "nbytes"} <= set(first)


def test_different_seeds_differ():
    a = run_online(run_offline(TOY, SG, seed=0), sample_input(TOY, seed=0))
    b = run_online(run_offline(TOY, SG, seed=1), sample_input(TOY, seed=1))
    assert not np.array_equal(a, b)


def test_bundle_single_use():
    bundle = run_offline(TOY, SG, seed=0)
    x = sample_input(TOY, seed=0)
    run_online(bundle, x)
    with pytest.raises(BundleConsumed):
        run_online(bundle, x)


def test_bundle_mismatch_checks():
    bundle = run_offline(TOY, SG, seed=0)
    with pytest.raises(BundleMismatch):
        run_online(bundle, np.zeros((3, 8, 8), dtype=np.int64))


@pytest.mark.parametrize("proto", [SG, CG], ids=["sg", "cg"])
def test_each_nonce_draws_fresh_masks_and_shares(proto):
    x = sample_input(TOY, seed=0)
    a, b = (run_offline(TOY, proto, seed=0, nonce=nonce) for nonce in (0, 1))
    for what in ("masks", "shares"):
        old, new = getattr(a.client_state, what), getattr(b.client_state, what)
        assert old.keys() == new.keys()
        assert not any(np.array_equal(old[i], new[i]) for i in old), what
    old, new = a.server_state.s_shares, b.server_state.s_shares
    assert not any(np.array_equal(old[u], new[u]) for u in old)
    assert np.array_equal(run_online(a, x), run_online(b, x))


def _block_of(n):
    return (
        run_offline(TOY, SG, seed=0, nonce=range(n)),
        np.stack([sample_input(TOY, seed=0, trial=t) for t in range(n)]),
    )


@pytest.mark.parametrize("count", [2, 4])
def test_block_refuses_another_number_of_inputs(count):
    block, xs = _block_of(3)
    xs = np.concatenate([xs, xs])[:count]
    with pytest.raises(BundleMismatch, match=r"input shape \(%d, 3, 32, 32\)" % count):
        run_online(block, xs)
    assert not block.consumed


def test_block_refuses_a_single_input():
    block, xs = _block_of(3)
    with pytest.raises(BundleMismatch, match=r"does not match \(3, 3, 32, 32\)"):
        run_online(block, xs[0])
    # a block of one still wants its input axis
    one, x1 = _block_of(1)
    with pytest.raises(BundleMismatch):
        run_online(one, x1[0])
    assert run_online(one, x1).shape == (1, TOY.dataset.classes)


def test_consumed_block_raises():
    block, xs = _block_of(3)
    assert run_online(block, xs).shape == (3, TOY.dataset.classes)
    with pytest.raises(BundleConsumed):
        run_online(block, xs)


def test_an_empty_block_is_refused():
    with pytest.raises(ValueError, match="at least one nonce"):
        run_offline(TOY, SG, seed=0, nonce=())


def test_sealed_roundtrip_and_opacity():
    rng = np.random.default_rng(0)
    vals = sample_elements(rng, (64,))
    key = SealKey()
    box = seal(key, vals)
    assert np.array_equal(unseal(key, box), vals)
    shown = repr(box)
    for v in vals[:8]:
        assert str(int(v)) not in shown
    with pytest.raises(WrongKey):
        unseal(SealKey(), box)


def test_verify_guard_on_large_arch():
    big = build_preset("resnet32", "cifar100")
    with pytest.raises(VerifyGuard):
        verify_against_plaintext(big, trials=1)
    assert GUARD_MAX_RELUS < 303_104


def _over_the_guard() -> list:
    """Every preset model x dataset that validates and that the ReLU guard
    refuses."""
    pairs = []
    for model in MODELS:
        for dataset in sorted({spec.name for spec in DATASETS.values()}):
            try:
                relus = count(build_preset(model, dataset)).relus
            except InvalidArch:
                continue
            if relus > GUARD_MAX_RELUS:
                pairs.append(pytest.param(model, dataset, id=f"{model}-{dataset}"))
    return pairs


class _FirstBlock(Exception):
    pass


@pytest.mark.parametrize("model,dataset", _over_the_guard())
def test_networks_over_the_guard_verify_one_trial_a_block(model, dataset, monkeypatch):
    # no weights and no masked run: the first plaintext pass reports its block
    def first_block(arch, weights, xs):
        raise _FirstBlock(len(xs))

    monkeypatch.setattr(verify_module, "gen_weights", lambda arch, seed: None)
    monkeypatch.setattr(verify_module, "plaintext_forward", first_block)
    with pytest.raises(_FirstBlock) as block:
        verify_against_plaintext(build_preset(model, dataset), trials=3, force=True)
    # resnet32 on toy8 (46,148 elements a trial) is the one pair that fits two
    want = 2 if (model, dataset) == ("resnet32", "toy8") else 1
    assert block.value.args == (want,)


def test_verify_reports_ok():
    result = verify_against_plaintext(TOY, seed=0, trials=3)
    assert result.ok
    assert result.expected.shape == (3, TOY.dataset.classes)
    assert list(result.logits) == [SG, CG]
    for protocol, logits in result.logits.items():
        assert np.array_equal(logits, result.expected)
        assert result.exact(protocol).tolist() == [True] * 3


def test_verify_draws_each_block_once_for_both_protocols(monkeypatch):
    """sg and cg read one block's tapes: a verify of n trials over both
    protocols draws each party's stream once per trial, 2n in all, besides
    each trial's input stream."""
    streams, seeded = [], executor.seeded_integers

    def counted(entropy, low, high, n):
        streams.append(tuple(entropy))
        return seeded(entropy, low, high, n)

    drawn = []

    def kept(arch, seed, nonce):
        drawn.append(executor.draw_tapes(arch, seed, nonce))
        return drawn[-1]

    monkeypatch.setattr(executor, "seeded_integers", counted)
    monkeypatch.setattr(verify_module, "draw_tapes", kept)
    trials = verify_block(TOY) + 2  # a full block, then a partial one
    result = verify_against_plaintext(TOY, trials=trials)
    assert result.ok
    assert len(set(streams)) == len(streams)
    assert sorted(e[1] for e in streams) == [1] * trials + [2] * trials + [3] * trials
    assert [len(t.masks[0]) for t in drawn] == [verify_block(TOY), 2]
    tape = drawn[0]
    for arrays in (tape.masks, tape.shares):
        for array in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1


@pytest.mark.parametrize("arch", [TOY, MINI], ids=["toy_cnn", "mini_res"])
@pytest.mark.parametrize("proto", [SG, CG], ids=["sg", "cg"])
def test_every_array_a_party_sends_holds_residues(arch, proto, monkeypatch):
    """Sealed or not, each array sent is in [0, p), and the masked input
    is each input minus its mask, mod p."""
    sent = []
    send = Channel.send

    def recording(self, sender, kind, payload, *args, **kwargs):
        sent.append((kind, payload))
        return send(self, sender, kind, payload, *args, **kwargs)

    monkeypatch.setattr(Channel, "send", recording)
    xs = np.stack([sample_input(arch, 0, trial) for trial in range(3)])
    bundle = run_offline(arch, proto, 0, nonce=range(3))
    run_online(bundle, xs)
    key = bundle.client_state.key
    arrays = [
        (kind, unseal(key, payload) if isinstance(payload, SealedVector) else payload)
        for kind, payload in sent
    ]
    arrays = [(kind, a) for kind, a in arrays if isinstance(a, np.ndarray)]
    assert {kind for kind, _ in arrays} >= {
        EventKind.ENCRYPTED_MASKS, EventKind.ENCRYPTED_LINEAR_SHARE, EventKind.MASKED_TENSOR,
    }
    for kind, a in arrays:
        assert a.dtype == np.int64 and 0 <= a.min() and a.max() < P, kind
    masked_input = next(a for kind, a in arrays if kind is EventKind.MASKED_TENSOR)
    assert np.array_equal(masked_input, (xs - bundle.client_state.masks[0]) % P)


def test_tapes_for_another_draw_are_refused():
    tapes = draw_tapes(TOY, 0, range(3))
    run_offline(TOY, SG, 0, nonce=range(3), tapes=tapes)
    for seed, nonce in ((1, range(3)), (0, range(1, 4)), (0, 0)):
        with pytest.raises(ValueError, match="another arch, seed or nonce"):
            run_offline(TOY, SG, seed, nonce=nonce, tapes=tapes)
    with pytest.raises(ValueError, match="another arch, seed or nonce"):
        run_offline(MINI, SG, 0, nonce=range(3), tapes=tapes)


@pytest.mark.parametrize("trials", [0, -2])
def test_verify_without_trials_is_ok_and_empty(trials):
    result = verify_against_plaintext(TOY, trials=trials)
    assert result.ok and result.transcripts == {}
    empty = (0, TOY.dataset.classes)
    assert result.expected.shape == empty
    for protocol in (SG, CG):
        assert result.logits[protocol].shape == empty
        assert result.exact(protocol).shape == (0,)


@given(st.integers(0, 2**32 - 1), st.integers(1, 128))
@settings(max_examples=30, deadline=None)
def test_share_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    v = sample_elements(rng, (n,))
    r = sample_elements(rng, (n,))
    assert np.array_equal(((v - r) % P + r) % P, v)


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 4), max_size=1),
    st.tuples(*[st.integers(1, 4)] * 3),
)
@settings(max_examples=30, deadline=None)
def test_gadget_evaluate_semantics(seed, batch, chw):
    """The gadget takes and returns a point's arrays at batch + (c, h, w)."""
    from pisim.protocol.parties import GarbledGadget

    shape = (*batch, *chw)
    rng = np.random.default_rng(seed)
    v = rng.integers(-1000, 1000, size=shape)
    c = sample_elements(rng, shape)
    s = (encode(v) - c) % P
    mask = sample_elements(rng, shape)
    gadget = GarbledGadget(client_share=c, next_mask=mask)
    out = gadget.evaluate(s)
    assert out.shape == shape
    assert np.array_equal(out, (np.maximum(v, 0) - mask) % P)

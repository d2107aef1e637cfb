"""A block of bundles against single runs at the same nonces.

`run_offline(..., nonce=range(start, start + n))` builds n bundles in one
two-party run, and `run_online` consumes them on n inputs at once. Bundle
k of the block must hold, bit for bit, what a single run at nonce
start + k holds: masks, client shares, server shares, probe shares,
logits, stored bytes and the transcript.

The parties read their masks and shares from tapes drawn before the run
(`draw_tapes`); the tapes must equal what the parties' own generators
drew before tapes existed (`protocol_oracle.party_draws`), and sg and cg
runs that share one block's tapes must each hold what a run drawing its
own holds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_protocol import MINI, TOY, verify_block

from protocol_oracle import party_draws

from pisim.protocol import draw_tapes, run_offline, run_online, sample_input

# an arch and a block size up to the one verify runs it in: 18 for TOY,
# 70 for MINI
ARCH_AND_N = st.sampled_from([TOY, MINI]).flatmap(
    lambda arch: st.tuples(st.just(arch), st.integers(1, verify_block(arch)))
)


def _assert_slice_k(block: dict, single: dict, k: int, n: int, what: str) -> None:
    assert block.keys() == single.keys(), what
    for key, want in single.items():
        got = block[key]
        assert got.dtype == want.dtype and got.shape == (n, *want.shape), (what, key)
        assert np.array_equal(got[k], want), (what, key)


@given(
    ARCH_AND_N,
    st.sampled_from(["sg", "cg"]),
    st.integers(0, 2**20),
    st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_block_bundles_equal_single_runs(arch_and_n, protocol, start, seed):
    arch, n = arch_and_n
    nonces = range(start, start + n)
    xs = np.stack([sample_input(arch, seed, trial) for trial in nonces])
    block = run_offline(arch, protocol, seed, nonce=nonces)
    logits = run_online(block, xs)
    assert logits.shape[0] == n
    for k, nonce in enumerate(nonces):
        single = run_offline(arch, protocol, seed, nonce=nonce)
        assert np.array_equal(logits[k], run_online(single, xs[k]))
        for what in ("masks", "shares"):
            _assert_slice_k(getattr(block.client_state, what),
                            getattr(single.client_state, what), k, n, what)
        for what in ("s_shares", "probe_shares"):
            _assert_slice_k(getattr(block.server_state, what),
                            getattr(single.server_state, what), k, n, what)
        assert block.client_stored_bytes == single.client_stored_bytes
        assert block.server_stored_bytes == single.server_stored_bytes
        assert block.transcript.to_jsonl() == single.transcript.to_jsonl()


def _assert_equal_arrays(got, want, what: str) -> None:
    assert got.keys() == want.keys(), what
    for key in want:
        assert got[key].dtype == want[key].dtype, (what, key)
        assert np.array_equal(got[key], want[key]), (what, key)


@given(ARCH_AND_N, st.booleans(), st.integers(0, 2**20), st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_shared_tapes_equal_party_draws_and_fresh_runs(arch_and_n, single, start, seed):
    arch, n = arch_and_n
    nonce = start if single else range(start, start + n)
    tapes = draw_tapes(arch, seed, nonce)
    masks, shares = party_draws(arch, seed, nonce)
    _assert_equal_arrays(tapes.masks, masks, "masks")
    _assert_equal_arrays(tapes.shares, shares, "shares")

    nonces = [start] if single else nonce
    xs = np.stack([sample_input(arch, seed, trial) for trial in nonces])
    if single:
        xs = xs[0]
    for protocol in ("sg", "cg"):
        shared = run_offline(arch, protocol, seed, nonce=nonce, tapes=tapes)
        fresh = run_offline(arch, protocol, seed, nonce=nonce)
        assert np.array_equal(run_online(shared, xs), run_online(fresh, xs))
        for what in ("masks", "shares"):
            _assert_equal_arrays(getattr(shared.client_state, what),
                                 getattr(fresh.client_state, what), what)
        for what in ("s_shares", "probe_shares"):
            _assert_equal_arrays(getattr(shared.server_state, what),
                                 getattr(fresh.server_state, what), what)
        assert shared.client_stored_bytes == fresh.client_stored_bytes
        assert shared.server_stored_bytes == fresh.server_stored_bytes
        assert shared.transcript.to_jsonl() == fresh.transcript.to_jsonl()
    # neither protocol's run wrote into the tapes they shared
    _assert_equal_arrays(tapes.masks, masks, "masks after both runs")
    _assert_equal_arrays(tapes.shares, shares, "shares after both runs")

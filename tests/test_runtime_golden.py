"""Byte-for-byte equality of protocol runs with digests captured from the
threaded runtime (two party threads over blocking queues) before the
single-thread generator runtime replaced it.

For each case the table holds SHA-256 digests of the transcript's JSONL,
the logits, the client/server stored byte counts and the server's
per-point probe shares. Regenerate the table with
`PYTHONPATH=src python tests/test_runtime_golden.py` only when a change is
meant to alter protocol output.
"""

import hashlib

import numpy as np
import pytest

from pisim.netarch import build_preset
from pisim.protocol import run_offline, run_online, sample_input
from test_protocol import MINI

ARCHS = {"toy_cnn": build_preset("toy_cnn", "cifar100"), "mini_res": MINI}

GOLDEN = {
    "toy_cnn/sg/0": (
        "7c9b7b7ec27c7d8c9d64157ed8af659271f23502aac50a6fd32020a5d28909d4",
        "91d2036952f90f4f914de096d1b6c43f992e3d509810e7d0b0a0e183fc110277",
        "40c1e39721ada9e1b800acc9fab600ef7049fe3c6db74d4436100a2978071e92",
        "f695ad2efa9e7db9e542765815991801b044549bb57afbd66d9d2cb1dee595bc",
    ),
    "toy_cnn/sg/1": (
        "7c9b7b7ec27c7d8c9d64157ed8af659271f23502aac50a6fd32020a5d28909d4",
        "e0c9c3eeae7c0907d2957d60a68c0319036edf114e4ebb4fab49c3c65827df1d",
        "40c1e39721ada9e1b800acc9fab600ef7049fe3c6db74d4436100a2978071e92",
        "b919fdabd529d7cddc4fa36cdb032c1ef090f04b5ad634bcd5ddbff4e3c44ff7",
    ),
    "toy_cnn/sg/7": (
        "7c9b7b7ec27c7d8c9d64157ed8af659271f23502aac50a6fd32020a5d28909d4",
        "15ffb3a3f19bb2c84c1f67ca941a42f022e55624a93c8481673d76ad58ea2259",
        "40c1e39721ada9e1b800acc9fab600ef7049fe3c6db74d4436100a2978071e92",
        "fb3e3d225563a68039e170881ac8d396f0181dc2b7b2b55703a90e5e80dfeb1e",
    ),
    "toy_cnn/cg/0": (
        "32a9cf88d24ef3e24197ba57dc9c30e380a9f3d2f12ed3253c318ed3db3c7160",
        "91d2036952f90f4f914de096d1b6c43f992e3d509810e7d0b0a0e183fc110277",
        "c085d0a10a23544a1666255ac513ef16189b2d981fa0058b7a9e786348736fc9",
        "f695ad2efa9e7db9e542765815991801b044549bb57afbd66d9d2cb1dee595bc",
    ),
    "toy_cnn/cg/1": (
        "32a9cf88d24ef3e24197ba57dc9c30e380a9f3d2f12ed3253c318ed3db3c7160",
        "e0c9c3eeae7c0907d2957d60a68c0319036edf114e4ebb4fab49c3c65827df1d",
        "c085d0a10a23544a1666255ac513ef16189b2d981fa0058b7a9e786348736fc9",
        "b919fdabd529d7cddc4fa36cdb032c1ef090f04b5ad634bcd5ddbff4e3c44ff7",
    ),
    "toy_cnn/cg/7": (
        "32a9cf88d24ef3e24197ba57dc9c30e380a9f3d2f12ed3253c318ed3db3c7160",
        "15ffb3a3f19bb2c84c1f67ca941a42f022e55624a93c8481673d76ad58ea2259",
        "c085d0a10a23544a1666255ac513ef16189b2d981fa0058b7a9e786348736fc9",
        "fb3e3d225563a68039e170881ac8d396f0181dc2b7b2b55703a90e5e80dfeb1e",
    ),
    "mini_res/sg/0": (
        "fcc72c61bd4d431b4936653bbba9f6f13c83806b69849c94a7f0038726b675cb",
        "3e170f32c4e856fa95216ac3a7cebb0e77f19b9948b04582f8a9946b2dc32676",
        "52d01948d2387f110829e683c92432586b594d62b2fdead5563882615a8c350f",
        "9fe1ecc0fd1302f5b45272db9a59781cede09c4345625b9d4b776e3d5ec2afc2",
    ),
    "mini_res/sg/1": (
        "fcc72c61bd4d431b4936653bbba9f6f13c83806b69849c94a7f0038726b675cb",
        "cabc140529514de0cc9a1a7f6681656fdf92a104cbb46b4c8479a5216d4a672d",
        "52d01948d2387f110829e683c92432586b594d62b2fdead5563882615a8c350f",
        "6e685ab6b8cb753109e6c1230295179f64febcaa332280b11f0ae2a8848df78f",
    ),
    "mini_res/sg/7": (
        "fcc72c61bd4d431b4936653bbba9f6f13c83806b69849c94a7f0038726b675cb",
        "d219a17e13fe192e609a7ab6f2077a2423a37586349891b84f012eeffb8a2d56",
        "52d01948d2387f110829e683c92432586b594d62b2fdead5563882615a8c350f",
        "60b3fe1eba58c551335dc888912b5c9917bfd985ca2ec0deebc81f30026d2286",
    ),
    "mini_res/cg/0": (
        "f62eac169edac59c36b631e0cdf5fc633815db669741ac06a25104102a963c0f",
        "3e170f32c4e856fa95216ac3a7cebb0e77f19b9948b04582f8a9946b2dc32676",
        "dbba913961e81efeb0b178018557b8b9ea29b66ceef013ba6df4ccde213aa248",
        "9fe1ecc0fd1302f5b45272db9a59781cede09c4345625b9d4b776e3d5ec2afc2",
    ),
    "mini_res/cg/1": (
        "f62eac169edac59c36b631e0cdf5fc633815db669741ac06a25104102a963c0f",
        "cabc140529514de0cc9a1a7f6681656fdf92a104cbb46b4c8479a5216d4a672d",
        "dbba913961e81efeb0b178018557b8b9ea29b66ceef013ba6df4ccde213aa248",
        "6e685ab6b8cb753109e6c1230295179f64febcaa332280b11f0ae2a8848df78f",
    ),
    "mini_res/cg/7": (
        "f62eac169edac59c36b631e0cdf5fc633815db669741ac06a25104102a963c0f",
        "d219a17e13fe192e609a7ab6f2077a2423a37586349891b84f012eeffb8a2d56",
        "dbba913961e81efeb0b178018557b8b9ea29b66ceef013ba6df4ccde213aa248",
        "60b3fe1eba58c551335dc888912b5c9917bfd985ca2ec0deebc81f30026d2286",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(arch, protocol: str, seed: int) -> tuple[str, str, str, str]:
    bundle = run_offline(arch, protocol, seed)
    logits = run_online(bundle, sample_input(arch, seed))
    probes = bundle.server_state.probe_shares
    probe_bytes = b"".join(
        f"{k}:{probes[k].shape}:".encode()
        + np.ascontiguousarray(probes[k], dtype=np.int64).tobytes()
        for k in sorted(probes)
    )
    stored = f"{bundle.client_stored_bytes}/{bundle.server_stored_bytes}"
    return (
        _sha(bundle.transcript.to_jsonl().encode()),
        _sha(np.ascontiguousarray(logits, dtype=np.int64).tobytes()),
        _sha(stored.encode()),
        _sha(probe_bytes),
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_runtime_reproduces_golden_digests(case):
    name, protocol, seed = case.split("/")
    got = run_digests(ARCHS[name], protocol, int(seed))
    fields = ("transcript", "logits", "stored bytes", "probe shares")
    for field, want, have in zip(fields, GOLDEN[case], got):
        assert have == want, f"{case}: {field} differs"


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, arch in ARCHS.items():
        for protocol in ("sg", "cg"):
            for seed in (0, 1, 7):
                print(f'    "{name}/{protocol}/{seed}": (')
                for digest in run_digests(arch, protocol, seed):
                    print(f'        "{digest}",')
                print("    ),")
    print("}")

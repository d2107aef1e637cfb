"""End-to-end checks of the headline claims.

Each test covers one claim and prints a single [criterion N] line with
the measured numbers (visible under pytest -s; the test name carries
the verdict under -v). Tolerances are stated inline next to each
assertion.
"""

import math
import time

import numpy as np
import pytest

from pisim.costmodel import (
    CommInputs,
    Protocol,
    Regime,
    classify_regime,
    get_optimization,
    load_shipped_costs,
    load_shipped_model,
    phase_costs,
    storage_deltas,
)
from pisim.desim import (
    PIPELINED,
    SERIAL,
    SimConfig,
    poisson_arrival_times,
    run_many,
    run_schedule,
    stability_limit,
)
from pisim.desim.arrivals import Gaps
from pisim.field import FIELD_MODULUS, encode
from pisim.netarch import build_preset, count
from pisim.protocol import (
    EventKind,
    gen_weights,
    plaintext_forward,
    run_offline,
    run_online,
    sample_input,
    verify_against_plaintext,
)

SG = Protocol.SERVER_GARBLER
CG = Protocol.CLIENT_GARBLER

CM = load_shipped_model()


def report(n: int, detail: str) -> None:
    print(f"\n[criterion {n}] PASS - {detail}")


def test_criterion_01_network_counts():
    published = {
        ("resnet32", "cifar100"): (0.5e6, 68.9e6, 303.1e3),
        ("vgg16", "cifar100"): (34e6, 332.5e6, 284.7e3),
        ("resnet18", "cifar100"): (11e6, 555.5e6, 557.1e3),
    }
    # params in the reference table are rounded to 0.1M / 1M, so the
    # bound is half of the last printed digit; flops and relus carry
    # enough digits for a strict 1% check
    params_abs = {"resnet32": 0.05e6, "vgg16": 0.5e6, "resnet18": 0.5e6}
    t0 = time.perf_counter()
    got = {}
    for (model, dataset), (p_pub, f_pub, r_pub) in published.items():
        c = count(build_preset(model, dataset))
        got[model] = c
        assert abs(c.params - p_pub) <= params_abs[model], model
        assert abs(c.flops - f_pub) / f_pub < 0.01, model
        assert abs(c.relus - r_pub) / r_pub < 0.01, model
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"counts for 3 networks within table rounding in {elapsed * 1e3:.0f} ms "
              f"(resnet32: {got['resnet32'].params} params, {got['resnet32'].relus} relus)")


def test_criterion_02_gc_storage_bottleneck():
    r32 = phase_costs(CM, "sg", build_preset("resnet32", "cifar100")).gc_storage_bytes
    r18c = phase_costs(CM, "sg", build_preset("resnet18", "cifar100")).gc_storage_bytes
    r18t = phase_costs(CM, "sg", build_preset("resnet18", "tinyimagenet")).gc_storage_bytes
    assert abs(r32 - 5.3e9) / 5.3e9 <= 0.05        # 5% band
    assert r18c > 9e9
    assert abs(r18t - 38.9e9) / 38.9e9 <= 0.10     # 10% band
    per_relu = CM.gc_bytes_per_relu
    assert 17_000 <= per_relu <= 20_000
    report(2, f"gc state {r32 / 1e9:.2f} / {r18c / 1e9:.2f} / {r18t / 1e9:.2f} GB "
              f"at {per_relu / 1e3:.2f} KB per relu")


def test_criterion_03_latency_calibration():
    worst = 0.0
    rows = load_shipped_costs()
    assert len(rows) == 12
    for row in rows:
        arch = build_preset(row.model, row.dataset)
        exact = phase_costs(CM, row.protocol, arch, mode="table")
        assert exact.offline_latency_s == pytest.approx(row.offline_latency_s, abs=1e-9)
        assert exact.online_latency_s == pytest.approx(row.online_latency_s, abs=1e-9)
        fit = phase_costs(CM, row.protocol, arch)
        off = abs(fit.offline_latency_s - row.offline_latency_s) / row.offline_latency_s
        on = abs(fit.online_latency_s - row.online_latency_s) / row.online_latency_s
        worst = max(worst, off, on)
        assert off <= 0.10 and on <= 0.10, (row.protocol, row.model, row.dataset)
    report(3, f"12 measured pairs replayed exactly; component fit worst "
              f"residual {worst * 100:.1f}% (<= 10%)")


def test_criterion_04_protocol_exactness():
    arch = build_preset("toy_cnn", "cifar100")
    t0 = time.perf_counter()
    result = verify_against_plaintext(arch, seed=0, trials=100)
    assert result.ok
    assert result.logits[SG].shape == result.logits[CG].shape == (100, arch.dataset.classes)
    assert np.array_equal(result.logits[SG], result.logits[CG])

    # share-sum audit: client and server shares at every relu point
    # must reconstruct the oracle's pre-activation
    for proto in (SG, CG):
        for seed in (0, 1):
            bundle = run_offline(arch, proto, seed=seed)
            x = sample_input(arch, seed=seed)
            run_online(bundle, x)
            trace = {}
            plaintext_forward(arch, gen_weights(arch, seed), x[None], trace=trace)
            for j, pt in enumerate(bundle.client_state.compiled.relu_points):
                s = bundle.server_state.probe_shares[pt.index].astype(np.int64).ravel()
                if proto is SG:
                    c = bundle.client_state.shares[pt.index].astype(np.int64).ravel()
                else:
                    c = bundle.server_state.gadgets[pt.index]._client_share.astype(np.int64).ravel()
                assert np.array_equal((c + s) % FIELD_MODULUS, encode(trace[j]).ravel())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, f"100 trials x 2 protocols exact, protocols agree, share sums "
              f"reconstruct, in {elapsed:.1f} s (< 30 s)")


def test_criterion_05_garbler_placement():
    arch = build_preset("toy_cnn", "cifar100")
    for proto, direction in ((SG, "s2c"), (CG, "c2s")):
        transcript = run_offline(arch, proto, seed=0).transcript
        gc = [e for e in transcript.events if e.kind is EventKind.GARBLED_CIRCUIT]
        assert gc and all(e.phase == "offline" for e in gc)
        assert all(e.direction == direction for e in gc)
        assert all(e.stored_by_receiver for e in gc)

    inputs = CommInputs.from_arch(build_preset("resnet32", "cifar100"))
    sg_d = storage_deltas(SG, inputs)
    cg_d = storage_deltas(CG, inputs)
    sg_client = sg_d.client_received_bytes + sg_d.client_self_bytes
    cg_client = cg_d.client_received_bytes + cg_d.client_self_bytes
    assert cg_client <= 0.01 * sg_client
    report(5, f"garbled circuits flow s2c/c2s as roles dictate; client offline "
              f"state {cg_client / 1e6:.1f} MB vs {sg_client / 1e9:.2f} GB "
              f"({100 * cg_client / sg_client:.2f}% <= 1%)")


def _serial_sweep(proto, cap_gb, rates, n_runs=100, horizon=86_400.0):
    costs = phase_costs(CM, proto, build_preset("resnet32", "cifar100"), mode="table")
    out = {}
    for rate in rates:
        cfg = SimConfig(
            arrival_rate=rate,
            horizon_s=horizon,
            n_runs=n_runs,
            concurrency=SERIAL,
            client_capacity_bytes=cap_gb * 1e9,
        )
        out[rate] = run_many(costs, cfg, base_seed=0)
    return costs, out


def test_criterion_06_serial_crossover():
    rates = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
    sg_costs, sg8 = _serial_sweep(SG, 8.0, rates)
    _, sg64 = _serial_sweep(SG, 64.0, rates)
    cg_costs, cg8 = _serial_sweep(CG, 8.0, rates)

    # (a) with shared seeds the cg offline+online sum is shorter at
    # every arrival, so its mean can never exceed sg
    for rate in rates:
        assert cg8[rate].mean_latency_s <= sg8[rate].mean_latency_s + 1e-9, rate

    # (b) extra sg storage does not buy back the gap at low load:
    # sg at 64 GB stays within 10% of cg
    gaps = []
    for rate in rates[:2]:
        gap = abs(sg64[rate].mean_latency_s - cg8[rate].mean_latency_s)
        gaps.append(gap / cg8[rate].mean_latency_s)
        assert gaps[-1] <= 0.10, rate

    # (c) both protocols sit beyond their serial stability limit at the
    # top rate and mean latency keeps growing with the horizon
    top = rates[-1]
    serial = SimConfig(arrival_rate=1.0, concurrency=SERIAL)
    assert top > stability_limit(sg_costs, serial)
    assert top > stability_limit(cg_costs, serial)
    assert sg8[top].saturated and cg8[top].saturated
    costs = phase_costs(CM, SG, build_preset("resnet32", "cifar100"), mode="table")
    short = run_many(costs, SimConfig(
        arrival_rate=top, horizon_s=86_400.0, n_runs=20,
        concurrency=SERIAL, client_capacity_bytes=8e9,
    ), base_seed=0)
    long = run_many(costs, SimConfig(
        arrival_rate=top, horizon_s=172_800.0, n_runs=20,
        concurrency=SERIAL, client_capacity_bytes=8e9,
    ), base_seed=0)
    assert long.mean_latency_s / short.mean_latency_s >= 1.3
    report(6, f"cg <= sg at all 5 rates; sg@64GB gaps "
              f"{gaps[0] * 100:.1f}% / {gaps[1] * 100:.1f}% (<= 10%); both "
              f"saturated at {top} req/s with latency still growing "
              f"{long.mean_latency_s / short.mean_latency_s:.2f}x on horizon doubling")


def test_criterion_07_capacity_sweep_speedup():
    arch = build_preset("resnet18", "tinyimagenet")
    rate, caps = 0.004, (64.0, 128.0, 256.0)
    sg_costs = phase_costs(CM, SG, arch, mode="table")
    best_sg = math.inf
    for cap in caps:
        cfg = SimConfig(
            arrival_rate=rate, horizon_s=86_400.0, n_runs=20,
            concurrency=PIPELINED, client_capacity_bytes=cap * 1e9,
        )
        agg = run_many(sg_costs, cfg, base_seed=0)
        best_sg = min(best_sg, agg.mean_latency_s)
    cg_costs = phase_costs(CM, CG, arch, mode="table")
    cg_cfg = SimConfig(
        arrival_rate=rate, horizon_s=86_400.0, n_runs=20,
        concurrency=PIPELINED, client_capacity_bytes=64.0e9,
    )
    cg = run_many(cg_costs, cg_cfg, base_seed=0).mean_latency_s
    assert best_sg >= 3.0 * cg
    report(7, f"resnet18/tinyimagenet at {rate} req/s: best sg over "
              f"{[int(c) for c in caps]} GB is {best_sg:.0f} s vs cg {cg:.1f} s "
              f"({best_sg / cg:.1f}x >= 3x)")


def test_criterion_08_precompute_wait_dominates():
    costs = phase_costs(CM, CG, build_preset("resnet18", "cifar100"))
    assert costs.offline_he_s >= 0.90 * costs.offline_compute_s
    rates = (1.2e-3, 1.8e-3, 2.2e-3)
    shares = []
    for rate in rates:
        cfg = SimConfig(
            arrival_rate=rate, horizon_s=86_400.0, n_runs=10,
            concurrency=SERIAL,
        )
        agg = run_many(costs, cfg, base_seed=0)
        shares.append(agg.mean_precompute_wait_s / agg.mean_latency_s)
    assert shares[0] < shares[1] < shares[2]
    report(8, f"he is {costs.offline_he_s / costs.offline_compute_s * 100:.0f}% of "
              f"offline compute; precompute share of latency rises "
              f"{shares[0]:.3f} -> {shares[1]:.3f} -> {shares[2]:.3f} with load")


def test_criterion_09_limiting_behavior():
    arch = build_preset("resnet32", "cifar100")
    warm_means = {}
    for proto in (SG, CG):
        costs = phase_costs(CM, proto, arch, mode="table")
        cfg = SimConfig(
            arrival_rate=5e-5, horizon_s=86_400.0, n_runs=20, concurrency=PIPELINED,
        )
        warm = []
        for seed in range(cfg.n_runs):
            s, _ = run_schedule(costs, cfg, seed)
            hit = ~np.isnan(s.done) & (s.bundle_ready <= s.arrival)
            warm.append(s.done[hit] - s.arrival[hit])
        warm = np.concatenate(warm)
        assert warm.size
        mean = float(np.mean(warm))
        warm_means[proto] = mean
        # trickle load excluding cold starts recovers the per-request
        # online latency to 5%
        assert abs(mean - costs.online_latency_s) / costs.online_latency_s <= 0.05

    costs = phase_costs(CM, SG, arch, mode="table")
    lim = stability_limit(costs, SimConfig(arrival_rate=1.0, concurrency=SERIAL))
    rate = 1.2 * lim
    base = dict(arrival_rate=rate, n_runs=10, concurrency=SERIAL)
    short = run_many(costs, SimConfig(horizon_s=86_400.0, **base), base_seed=0)
    long = run_many(costs, SimConfig(horizon_s=172_800.0, **base), base_seed=0)
    growth = long.mean_latency_s / short.mean_latency_s
    assert growth >= 1.5
    report(9, f"warm trickle latency {warm_means[SG]:.2f}/{warm_means[CG]:.2f} s "
              f"matches online phase to 5%; at 1.2x the limit latency grows "
              f"{growth:.2f}x when the horizon doubles")


def test_criterion_10_statistics():
    def one_run(rate, horizon, seed):
        (times,) = poisson_arrival_times(rate, horizon, Gaps([seed]))
        return times[times < math.inf]

    rate, horizon = 2.0, 50_000.0
    lam = rate * horizon
    n = one_run(rate, horizon, 7).size
    assert abs(n - lam) <= 3 * math.sqrt(lam)

    gaps = np.diff(one_run(1.0, 200_000.0, 8))
    assert abs(gaps.mean() - 1.0) <= 3 / math.sqrt(gaps.size)
    assert abs(gaps.var() - 1.0) <= 0.05

    costs = phase_costs(CM, CG, build_preset("resnet32", "cifar100"), mode="table")
    base = dict(arrival_rate=1e-3, horizon_s=30_000.0, concurrency=PIPELINED)
    # average the small-batch interval over disjoint seed blocks so a
    # single noisy std estimate cannot dominate
    small = [
        run_many(costs, SimConfig(n_runs=16, **base), base_seed=b * 16).ci95_latency_s
        for b in range(8)
    ]
    big = run_many(costs, SimConfig(n_runs=256, **base), base_seed=1000)
    ratio = float(np.mean(small)) / big.ci95_latency_s
    # 16x the runs should shrink the interval about sqrt(16) = 4x
    assert 2.5 <= ratio <= 6.0
    report(10, f"arrival count {n} within 3 sigma of {lam:.0f}; interarrival "
               f"moments exponential; ci ratio n=16/n=256 is {ratio:.1f} "
               f"(in [2.5, 6])")


def test_criterion_11_regime_mapping():
    cases = {
        "delphi": Regime.LOW,
        "deepreduce": Regime.MODERATE,
        "deepreduce_circa": Regime.HIGH,
    }
    for name, want in cases.items():
        assert classify_regime(get_optimization(name)) is want, name
    report(11, "delphi -> low, deepreduce -> moderate, "
               "deepreduce+circa -> high")

"""Command-line front end: cost reports, simulations, sweeps, verification.

Exit codes: 0 success, 1 verification mismatch, 2 unknown identifier,
bad input file or bad cost input, 3 infeasible configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .costmodel import (
    CommInputs,
    CostModelError,
    OptimizationKnobs,
    Protocol,
    classify_regime,
    gc_storage,
    get_optimization,
    load_shipped_model,
    offline_comm,
    online_comm,
    phase_costs,
)
from .costmodel.tables import open_config
from .desim import (
    PIPELINED,
    SERIAL,
    ConfigInfeasible,
    SimConfig,
    run_points,
    stability_limit,
    sweep_point,
    write_sweep_csv,
)
from .desim.sweep import SWEEP_COLUMNS, format_value
from .field import FieldOverflowRisk
from .netarch import (
    DATASETS,
    MODELS,
    NetworkArch,
    ParseError,
    UnknownPreset,
    build_preset,
    canonical_dataset,
    count,
    layer_kind_counts,
    linear_profile,
    load,
    validate,
)
from .protocol import (
    VerifyGuard,
    run_offline,
    run_online,
    sample_input,
    verify_against_plaintext,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNKNOWN = 2
EXIT_INFEASIBLE = 3

CI_PROFILE = {"horizon_s": 14400.0, "n_runs": 10}


class SpecError(ValueError):
    """Experiment spec has an unknown key or a malformed value."""


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Flat description of one simulation or sweep experiment."""

    name: str = "adhoc"
    model: str = "resnet32"
    dataset: str = "cifar100"
    protocols: tuple[str, ...] = ("sg", "cg")
    rates: tuple[float, ...] = (1e-3,)
    client_capacity_gb: tuple[float, ...] = (math.inf,)
    server_capacity_gb: float = 10000.0
    concurrency: str = SERIAL
    horizon_s: float = 86400.0
    n_runs: int = 100
    seed: int = 0
    mode: str = "table"
    knobs: str = "none"
    output_dir: str = "."
    formats: tuple[str, ...] = ("csv",)


def _parse_floats(text: str) -> tuple[float, ...]:
    vals = tuple(float(t) for t in text.replace(",", " ").split())
    if not vals:
        raise SpecError("empty number list")
    return vals


def _parse_caps(text: str) -> tuple[float, ...]:
    out = []
    for tok in text.replace(",", " ").split():
        low = tok.lower()
        out.append(math.inf if low in ("none", "inf", "unbounded") else float(tok))
    if not out:
        raise SpecError("empty capacity list")
    return tuple(out)


def _parse_names(text: str) -> tuple[str, ...]:
    names = tuple(t for t in text.replace(",", " ").split())
    if not names:
        raise SpecError("empty name list")
    return names


def _parse_formats(text: str) -> tuple[str, ...]:
    fmts = _parse_names(text)
    bad = [f for f in fmts if f not in ("csv", "json")]
    if bad:
        raise SpecError(f"unsupported output formats {bad}; choose from csv, json")
    return fmts


def _parse_concurrency(text: str) -> str:
    if text not in (SERIAL, PIPELINED):
        raise SpecError(f"concurrency must be {SERIAL!r} or {PIPELINED!r}, got {text!r}")
    return text


def _parse_mode(text: str) -> str:
    if text not in ("table", "component"):
        raise SpecError(f"mode must be 'table' or 'component', got {text!r}")
    return text


_SPEC_PARSERS = {
    "name": str,
    "model": str,
    "dataset": canonical_dataset,
    "protocols": _parse_names,
    "rates": _parse_floats,
    "client_capacity_gb": _parse_caps,
    "server_capacity_gb": float,
    "concurrency": _parse_concurrency,
    "horizon_s": float,
    "n_runs": int,
    "seed": int,
    "mode": _parse_mode,
    "knobs": str,
    "output_dir": str,
    "formats": _parse_formats,
}


def apply_spec_pairs(spec: ExperimentSpec, pairs: list[tuple[str, str]]) -> ExperimentSpec:
    updates = {}
    for key, raw in pairs:
        if key not in _SPEC_PARSERS:
            known = ", ".join(sorted(_SPEC_PARSERS))
            raise SpecError(f"unknown experiment key {key!r}; known keys: {known}")
        try:
            updates[key] = _SPEC_PARSERS[key](raw)
        except (ValueError, TypeError) as exc:
            raise SpecError(f"bad value for {key!r}: {exc}") from exc
    return dataclasses.replace(spec, **updates) if updates else spec


def parse_experiment(text: str, base: ExperimentSpec | None = None) -> ExperimentSpec:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise SpecError(f"line {lineno}: expected key = value, got {body!r}")
        key, _, raw = body.partition("=")
        pairs.append((key.strip(), raw.strip()))
    return apply_spec_pairs(base or ExperimentSpec(), pairs)


def shipped_experiments() -> list[str]:
    root = resources.files("pisim").joinpath("configs").joinpath("experiments")
    return sorted(p.name[: -len(".exp")] for p in root.iterdir() if p.name.endswith(".exp"))


def load_experiment(ref: str) -> ExperimentSpec:
    """Resolve "@name", a shipped spec name, or a filesystem path."""
    name = ref[1:] if ref.startswith("@") else ref
    path = Path(name)
    if path.exists():
        return parse_experiment(path.read_text())
    if not name.endswith(".exp"):
        name += ".exp"
    try:
        with open_config("experiments/" + name) as fh:
            return parse_experiment(fh.read())
    except FileNotFoundError:
        known = ", ".join(shipped_experiments())
        raise SpecError(f"no experiment spec {ref!r}; shipped specs: {known}") from None


def parse_knobs(text: str | None) -> OptimizationKnobs:
    """A shipped optimization name, or comma-separated factor=value pairs."""
    if not text or text.lower() in ("none", "identity", "baseline"):
        return OptimizationKnobs()
    if "=" not in text:
        return get_optimization(text)
    aliases = {
        "relu": "relu_factor",
        "relu_factor": "relu_factor",
        "flop": "flop_factor",
        "flop_factor": "flop_factor",
        "gc": "gc_per_relu_factor",
        "gc_per_relu": "gc_per_relu_factor",
        "gc_per_relu_factor": "gc_per_relu_factor",
        "he": "he_per_flop_factor",
        "he_per_flop": "he_per_flop_factor",
        "he_per_flop_factor": "he_per_flop_factor",
    }
    fields = {}
    for part in text.split(","):
        key, eq, raw = part.strip().partition("=")
        if not eq:
            raise SpecError(f"knob {part!r} is not name=value")
        if key not in aliases:
            raise SpecError(f"unknown knob {key!r}; known: relu, flop, gc_per_relu, he_per_flop")
        try:
            fields[aliases[key]] = float(raw)
        except ValueError:
            raise SpecError(f"knob {key!r} needs a number, got {raw!r}") from None
    return OptimizationKnobs(name="custom", **fields)


def resolve_arch(model: str, dataset: str) -> NetworkArch:
    """A preset pair, or a .arch file path in place of the model name."""
    if model.endswith(".arch") or Path(model).exists():
        arch = load(model)
        validate(arch)
        return arch
    return build_preset(model, dataset)


def _fmt_bytes(n: float) -> str:
    for unit, div in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if n >= div:
            return f"{n / div:.3f} {unit}"
    return f"{n:.0f} B"


def _print_kv(key: str, value: str) -> None:
    print(f"{key:<22}{value}")


def cmd_cost(args: argparse.Namespace) -> int:
    knobs = parse_knobs(args.knobs)
    mode = args.mode or ("table" if knobs.is_identity else "component")
    cm = load_shipped_model(mode=mode)
    arch = resolve_arch(args.model, args.dataset)
    protocol = Protocol.parse(args.protocol)
    costs = phase_costs(cm, protocol, arch, bandwidth=args.bandwidth, knobs=knobs)
    gc_bytes = gc_storage(arch, cm, knobs)
    gc_side = "client" if protocol is Protocol.SERVER_GARBLER else "server"

    _print_kv("protocol", f"{protocol.value} ({protocol.short})")
    _print_kv("network", f"{arch.name} / {arch.dataset.name}")
    _print_kv("mode", mode)
    if not knobs.is_identity:
        _print_kv(
            "knobs",
            f"{knobs.name} (relu={knobs.relu_factor:g} flop={knobs.flop_factor:g} "
            f"gc_per_relu={knobs.gc_per_relu_factor:g} he_per_flop={knobs.he_per_flop_factor:g})",
        )
    _print_kv("bandwidth", f"{costs.bandwidth_bytes_per_s:.3g} B/s")
    _print_kv("offline latency", f"{costs.offline_latency_s:.3f} s")
    _print_kv("online latency", f"{costs.online_latency_s:.3f} s")
    _print_kv("offline HE time", f"{costs.offline_he_s:.3f} s")
    _print_kv(
        "offline comm",
        f"{_fmt_bytes(costs.offline_comm_bytes)} "
        f"(c2s {_fmt_bytes(costs.offline_comm_c2s_bytes)}, "
        f"s2c {_fmt_bytes(costs.offline_comm_s2c_bytes)})",
    )
    _print_kv(
        "online comm",
        f"{_fmt_bytes(costs.online_comm_bytes)} "
        f"(c2s {_fmt_bytes(costs.online_comm_c2s_bytes)}, "
        f"s2c {_fmt_bytes(costs.online_comm_s2c_bytes)})",
    )
    _print_kv("client storage", _fmt_bytes(costs.client_storage_delta_bytes))
    _print_kv("server storage", _fmt_bytes(costs.server_storage_delta_bytes))
    _print_kv("gc storage", f"{_fmt_bytes(gc_bytes)} (held by {gc_side})")
    serial = SimConfig(arrival_rate=1.0, concurrency=SERIAL)
    _print_kv("max sustainable", f"{stability_limit(costs, serial):.6g} req/s (serial)")
    _print_kv("regime", classify_regime(knobs).value)
    return EXIT_OK


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    spec = load_experiment(args.spec) if args.spec else ExperimentSpec()
    if args.profile == "ci":
        spec = dataclasses.replace(spec, **CI_PROFILE)
    flag_map = [
        ("model", "model"),
        ("dataset", "dataset"),
        ("protocols", "protocols"),
        ("rates", "rates"),
        ("capacities", "client_capacity_gb"),
        ("concurrency", "concurrency"),
        ("horizon", "horizon_s"),
        ("runs", "n_runs"),
        ("seed", "seed"),
        ("mode", "mode"),
        ("knobs", "knobs"),
        ("out", "output_dir"),
        ("formats", "formats"),
        ("name", "name"),
    ]
    pairs = []
    for attr, key in flag_map:
        value = getattr(args, attr, None)
        if value is not None:
            pairs.append((key, str(value)))
    pairs.extend(_split_set_pairs(args.set or []))
    return apply_spec_pairs(spec, pairs)


def _split_set_pairs(items: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for item in items:
        key, eq, raw = item.partition("=")
        if not eq:
            raise SpecError(f"--set expects key=value, got {item!r}")
        pairs.append((key.strip(), raw.strip()))
    return pairs


def _spec_costs(spec: ExperimentSpec, protocol: str):
    knobs = parse_knobs(spec.knobs)
    mode = spec.mode
    if mode == "table" and not knobs.is_identity:
        mode = "component"
    cm = load_shipped_model(mode=mode)
    arch = resolve_arch(spec.model, spec.dataset)
    return phase_costs(cm, Protocol.parse(protocol), arch, knobs=knobs)


def _spec_config(spec: ExperimentSpec, rate: float, cap_gb: float) -> SimConfig:
    client_cap = None if math.isinf(cap_gb) else cap_gb * 1e9
    return SimConfig(
        arrival_rate=rate,
        horizon_s=spec.horizon_s,
        n_runs=spec.n_runs,
        server_capacity_bytes=spec.server_capacity_gb * 1e9,
        client_capacity_bytes=client_cap,
        concurrency=spec.concurrency,
        keep_records=False,
    )


def _write_rows(rows: list[dict], spec: ExperimentSpec, stem: str) -> list[Path]:
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in spec.formats:
        path = out_dir / f"{stem}.csv"
        write_sweep_csv(rows, path)
        written.append(path)
    if "json" in spec.formats:
        path = out_dir / f"{stem}.json"
        payload = [{c: format_value(row[c]) for c in SWEEP_COLUMNS} for row in rows]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    costs = _spec_costs(spec, spec.protocols[0])
    config = _spec_config(spec, spec.rates[0], spec.client_capacity_gb[0])
    row = sweep_point(costs, config, spec.seed)
    if not row["feasible"]:
        print(f"infeasible: {row['failure']}", file=sys.stderr)
        if not args.allow_infeasible:
            return EXIT_INFEASIBLE
    paths = _write_rows([row], spec, spec.name)
    if row["feasible"]:
        print(
            f"{row['protocol']} {row['model']}/{row['dataset']} rate {row['arrival_rate']:g}: "
            f"mean latency {row['mean_latency_s']:.3f} s "
            f"(precompute {row['mean_precompute_wait_s']:.3f} + "
            f"queue {row['mean_queue_wait_s']:.3f} + online {row['mean_online_s']:.3f}), "
            f"completed {row['completed']}/{row['arrived']}, "
            f"saturated={str(row['saturated']).lower()}"
        )
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    tasks = []
    for protocol in spec.protocols:
        costs = _spec_costs(spec, protocol)
        for cap_gb in spec.client_capacity_gb:
            for rate in spec.rates:
                tasks.append((costs, _spec_config(spec, rate, cap_gb), spec.seed))
    rows = run_points(tasks, args.jobs)
    paths = _write_rows(rows, spec, spec.name)
    failed = sum(1 for r in rows if not r["feasible"])
    for path in paths:
        print(f"wrote {path}")
    print(f"{len(rows)} rows, {failed} infeasible")
    return EXIT_INFEASIBLE if failed == len(rows) else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    arch = resolve_arch(args.model, args.dataset) if args.arch is None else None
    if arch is None:
        arch = load(args.arch)
        validate(arch)
    if args.protocol == "both":
        protocols = (Protocol.SERVER_GARBLER, Protocol.CLIENT_GARBLER)
    else:
        protocols = (Protocol.parse(args.protocol),)
    if args.trials <= 0:
        print("warning: zero trials requested; nothing verified")
        return EXIT_OK

    result = verify_against_plaintext(
        arch, seed=args.seed, trials=args.trials, protocols=protocols, force=args.force
    )
    by_proto: dict[Protocol, list] = {p: [] for p in protocols}
    for trial in result.trials:
        by_proto[trial.protocol].append(trial)
    for protocol in protocols:
        trials = by_proto[protocol]
        bad = sum(1 for t in trials if not t.ok)
        status = "pass" if bad == 0 else "FAIL"
        print(f"{protocol.short}: {status} ({len(trials) - bad}/{len(trials)} trials exact)")

    inputs = CommInputs.from_arch(arch)
    for protocol in protocols:
        bundle = run_offline(arch, protocol, args.seed)
        online = run_online(bundle, sample_input(arch, args.seed))
        off_model = offline_comm(protocol, inputs)
        on_model = online_comm(protocol, inputs)
        off_c2s = bundle.transcript.total_bytes("offline", "c2s")
        off_s2c = bundle.transcript.total_bytes("offline", "s2c")
        on_c2s = online.transcript.total_bytes("online", "c2s")
        on_s2c = online.transcript.total_bytes("online", "s2c")
        print(
            f"{protocol.short} transcript vs cost model (bytes): "
            f"offline c2s {off_c2s - off_model.c2s_bytes:+d}, "
            f"s2c {off_s2c - off_model.s2c_bytes:+d}; "
            f"online c2s {on_c2s - on_model.c2s_bytes:+d}, "
            f"s2c {on_s2c - on_model.s2c_bytes:+d}"
        )
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


def cmd_arch_check(args: argparse.Namespace) -> int:
    arch = load(args.path)
    validate(arch)
    counts = count(arch)
    kinds = layer_kind_counts(arch)
    profile = linear_profile(arch)
    _print_kv("name", arch.name)
    _print_kv("dataset", f"{arch.dataset.name} ({arch.dataset.channels}x"
              f"{arch.dataset.height}x{arch.dataset.width}, "
              f"{arch.dataset.classes} classes)")
    _print_kv("layers", ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    _print_kv("skips", str(len(arch.skips)))
    _print_kv("params", f"{counts.params:,}")
    _print_kv("flops", f"{counts.flops:,}")
    _print_kv("relus", f"{counts.relus:,}")
    _print_kv("linear units", str(profile.n_units))
    print("ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisim",
        description="Cost modeling and discrete-event simulation of "
        "two-party private-inference serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cost = sub.add_parser("cost", help="print per-inference phase costs")
    p_cost.add_argument("--model", default="resnet32", help="preset name or .arch path")
    p_cost.add_argument("--dataset", default="cifar100")
    p_cost.add_argument("--protocol", default="sg", help="sg or cg")
    p_cost.add_argument("--knobs", default=None,
                        help="optimization name or relu=F,flop=F,gc_per_relu=F,he_per_flop=F")
    p_cost.add_argument("--bandwidth", type=float, default=None, help="link bytes/s")
    p_cost.add_argument("--mode", choices=("table", "component"), default=None)
    p_cost.set_defaults(fn=cmd_cost)

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", nargs="?", default=None,
                       help="experiment spec: @name, shipped name, or path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any experiment key (repeatable, last wins)")
        p.add_argument("--profile", choices=("ci",), default=None,
                       help="ci: 4 h horizon, 10 runs")
        p.add_argument("--model", default=None)
        p.add_argument("--dataset", default=None)
        p.add_argument("--protocols", default=None, help="comma list, e.g. sg,cg")
        p.add_argument("--rates", default=None, help="comma list of req/s")
        p.add_argument("--capacities", default=None,
                       help="comma list of client capacities in GB (none = unbounded)")
        p.add_argument("--concurrency", default=None, choices=(SERIAL, PIPELINED))
        p.add_argument("--horizon", default=None, type=float, help="seconds simulated")
        p.add_argument("--runs", default=None, type=int, help="independent runs")
        p.add_argument("--seed", default=None, type=int)
        p.add_argument("--mode", default=None, choices=("table", "component"))
        p.add_argument("--knobs", default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--formats", default=None, help="csv,json")
        p.add_argument("--name", default=None, help="output file stem")

    p_sim = sub.add_parser("simulate", help="simulate one serving configuration")
    add_spec_args(p_sim)
    p_sim.add_argument("--allow-infeasible", action="store_true",
                       help="report infeasible configs instead of exiting 3")
    p_sim.set_defaults(fn=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid of protocols x capacities x rates")
    add_spec_args(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="check masked inference against plaintext")
    p_verify.add_argument("--model", default="toy_cnn")
    p_verify.add_argument("--dataset", default="cifar100")
    p_verify.add_argument("--arch", default=None, help=".arch file to verify")
    p_verify.add_argument("--protocol", default="both", help="sg, cg, or both")
    p_verify.add_argument("--trials", type=int, default=3)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--force", action="store_true",
                          help="bypass the ReLU-count guard for large networks")
    p_verify.set_defaults(fn=cmd_verify)

    p_arch = sub.add_parser("arch", help="architecture file tools")
    arch_sub = p_arch.add_subparsers(dest="arch_command", required=True)
    p_check = arch_sub.add_parser("check", help="parse, validate, and summarize")
    p_check.add_argument("path")
    p_check.set_defaults(fn=cmd_arch_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UnknownPreset, CostModelError, SpecError, ParseError) as exc:
        msg = str(exc)
        if isinstance(exc, UnknownPreset) and "known" not in msg:
            msg += (
                f" (models: {', '.join(sorted(MODELS))}; "
                f"datasets: {', '.join(sorted(DATASETS))})"
            )
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_UNKNOWN
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except VerifyGuard as exc:
        msg = str(exc).replace("pass force=True", "pass --force")
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_UNKNOWN
    except ConfigInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FieldOverflowRisk as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> None:
    sys.exit(main())

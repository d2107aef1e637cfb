"""Command-line front end: cost reports, simulations, sweeps, verification.

Exit codes: 0 success, 1 verification mismatch, and otherwise the
exit_code of the PisimError raised (see pisim.errors): 2 for bad input,
3 for an infeasible configuration. An unusable path (OSError) exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from .costmodel import (
    CommInputs,
    OptimizationKnobs,
    PhaseCosts,
    Protocol,
    classify_regime,
    get_optimization,
    load_shipped_model,
    offline_comm,
    online_comm,
    phase_costs,
)
from .costmodel.query import COST_MODES
from .costmodel.tables import open_config
from .costmodel.types import KNOB_FACTORS, InvalidCostInput
from .desim import (
    PIPELINED,
    SERIAL,
    SimConfig,
    run_points,
    stability_limit,
    write_sweep_csv,
)
from .desim import sweep
from .desim.sweep import SWEEP_COLUMNS, format_value
from .errors import PisimError
from .netarch import (
    NetworkArch,
    build_preset,
    canonical_dataset,
    count,
    layer_kind_counts,
    load,
    validate,
)
from .protocol import verify_against_plaintext
# perfbench's tracer binds these here, though cli no longer calls them
from .protocol import run_offline, run_online, sample_input  # noqa: F401

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNKNOWN = 2
EXIT_INFEASIBLE = 3

CI_PROFILE = {"horizon_s": 14400.0, "n_runs": 10}

# Each knob factor's field by its short name (the field name less "_factor").
# parse_knobs takes the field name, the short name or the short name's first
# word: relu, flop, gc and he.
_KNOB_NAMES = {f.removesuffix("_factor"): f for f in KNOB_FACTORS}
_KNOB_ALIASES = {
    alias: f for short, f in _KNOB_NAMES.items() for alias in (f, short, short.split("_")[0])
}


class SpecError(PisimError, ValueError):
    """Experiment spec has an unknown key or a malformed value."""


def _list_of(parse, what: str):
    """A parser of a comma or space separated list, each item through parse."""
    def parse_list(text: str) -> tuple:
        items = tuple(parse(t) for t in text.replace(",", " ").split())
        if not items:
            raise SpecError(f"empty {what} list")
        return items

    return parse_list


def _choice(key: str, choices: tuple[str, ...]):
    """A parser of one of choices, which names key in its error."""
    def parse(text: str) -> str:
        if text not in choices:
            raise SpecError(f"{key} must be {' or '.join(map(repr, choices))}, got {text!r}")
        return text

    return parse


def _int_at_least(low: int, rule: str):
    """A parser of an integer of at least low, which states rule in its error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{rule}, got {value}")
        return value

    return parse


def _parse_rates(text: str) -> tuple[float, ...]:
    """req/s; NaN and +inf pass on to SimConfig, which rejects them."""
    rates = _list_of(float, "number")(text)
    if any(r < 0 for r in rates):
        raise SpecError(f"rates must be non-negative, got {text}")
    return rates


def _parse_horizon(text: str) -> float:
    """Seconds; NaN and +inf pass on to SimConfig, which rejects them."""
    horizon = float(text)
    if horizon <= 0:
        raise SpecError(f"horizon must be positive, got {text}")
    return horizon


def _parse_capacity(text: str) -> float:
    """GB, or unbounded; NaN passes on to SimConfig, which rejects it."""
    if text.lower() in ("none", "inf", "unbounded"):
        return math.inf
    value = float(text)
    if value < 0:
        raise SpecError(f"capacity must be non-negative, got {text}")
    return value


def _parse_formats(text: str) -> tuple[str, ...]:
    fmts = _list_of(str, "name")(text)
    bad = [f for f in fmts if f not in ("csv", "json")]
    if bad:
        raise SpecError(f"unsupported output formats {bad}; choose from csv, json")
    return fmts


def _key(default, parse, flag: str | None = None, help: str | None = None):
    """An experiment key: its default, the parser of its text, and its flag."""
    return dataclasses.field(default=default, metadata={"parse": parse, "flag": flag, "help": help})


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Flat description of one simulation or sweep experiment.

    Spec files, --set and each key's flag all hand the key's text to the
    parser its field declares.
    """

    name: str = _key("adhoc", str, "--name", "output file stem")
    model: str = _key("resnet32", str, "--model", "preset name or .arch path")
    dataset: str = _key("cifar100", canonical_dataset, "--dataset")
    protocols: tuple[str, ...] = _key(("sg", "cg"), _list_of(str, "name"), "--protocols",
                                      "comma list, e.g. sg,cg")
    rates: tuple[float, ...] = _key((1e-3,), _parse_rates, "--rates", "comma list of req/s")
    client_capacity_gb: tuple[float, ...] = _key(
        (math.inf,), _list_of(_parse_capacity, "capacity"), "--capacities",
        "comma list of client capacities in GB (none = unbounded)")
    server_capacity_gb: float = _key(10000.0, _parse_capacity)
    concurrency: str = _key(SERIAL, _choice("concurrency", (SERIAL, PIPELINED)), "--concurrency",
                            "serial or pipelined")
    horizon_s: float = _key(86400.0, _parse_horizon, "--horizon", "seconds simulated")
    n_runs: int = _key(100, _int_at_least(1, "need at least 1 run"), "--runs", "independent runs")
    seed: int = _key(0, _int_at_least(0, "seed must be non-negative"), "--seed")
    mode: str | None = _key(None, _choice("mode", COST_MODES), "--mode",
                            "table or component; default table without knobs, component with them")
    knobs: str = _key("none", str, "--knobs",
                      "optimization name or " + ",".join(f"{k}=F" for k in _KNOB_NAMES))
    output_dir: str = _key(".", str, "--out", "output directory")
    formats: tuple[str, ...] = _key(("csv",), _parse_formats, "--formats", "csv,json")


_SPEC_KEYS = {f.name: f.metadata for f in dataclasses.fields(ExperimentSpec)}


def apply_spec_pairs(spec: ExperimentSpec, pairs: list[tuple[str, str]]) -> ExperimentSpec:
    updates = {}
    for key, raw in pairs:
        if key not in _SPEC_KEYS:
            known = ", ".join(sorted(_SPEC_KEYS))
            raise SpecError(f"unknown experiment key {key!r}; known keys: {known}")
        try:
            updates[key] = _SPEC_KEYS[key]["parse"](raw)
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
    if not text:
        return OptimizationKnobs()
    if "=" not in text:
        return get_optimization(text)
    fields = {}
    for part in text.split(","):
        key, eq, raw = part.strip().partition("=")
        if not eq:
            raise SpecError(f"knob {part!r} is not name=value")
        if key not in _KNOB_ALIASES:
            raise SpecError(f"unknown knob {key!r}; known: {', '.join(_KNOB_NAMES)}")
        try:
            fields[_KNOB_ALIASES[key]] = float(raw)
        except ValueError:
            raise SpecError(f"knob {key!r} needs a number, got {raw!r}") from None
    return OptimizationKnobs(name="custom", **fields)


def resolve_arch(model: str, dataset: str) -> NetworkArch:
    """A preset pair, or an architecture file in place of the model name:
    a name that ends in .arch or holds a path separator is a path."""
    if model.endswith(".arch") or "/" in model or os.sep in model:
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
    knobs, mode, (costs,) = _spec_costs(_spec_from_args(args), (args.protocol,), args.bandwidth)
    protocol = costs.protocol
    gc_side = "client" if protocol is Protocol.SERVER_GARBLER else "server"

    _print_kv("protocol", f"{protocol.value} ({protocol.short})")
    _print_kv("network", f"{costs.model} / {costs.dataset}")
    _print_kv("mode", mode)
    if not knobs.is_identity:
        factors = " ".join(f"{short}={getattr(knobs, f):g}" for short, f in _KNOB_NAMES.items())
        _print_kv("knobs", f"{knobs.name} ({factors})")
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
    _print_kv("gc storage", f"{_fmt_bytes(costs.gc_storage_bytes)} (held by {gc_side})")
    serial = SimConfig(arrival_rate=1.0, concurrency=SERIAL)
    _print_kv("max sustainable", f"{stability_limit(costs, serial):.6g} req/s (serial)")
    _print_kv("regime", classify_regime(knobs).value)
    return EXIT_OK


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    # cost has no spec, --profile or --set; each key's flag stores its raw
    # text under the key's name
    flags = vars(args)
    spec = load_experiment(flags["spec"]) if flags.get("spec") else ExperimentSpec()
    if flags.get("profile") == "ci":
        spec = dataclasses.replace(spec, **CI_PROFILE)
    pairs = [(key, flags[key]) for key in _SPEC_KEYS if flags.get(key) is not None]
    pairs.extend(_split_set_pairs(flags.get("set") or []))
    return apply_spec_pairs(spec, pairs)


def _split_set_pairs(items: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for item in items:
        key, eq, raw = item.partition("=")
        if not eq:
            raise SpecError(f"--set expects key=value, got {item!r}")
        pairs.append((key.strip(), raw.strip()))
    return pairs


def _spec_costs(
    spec: ExperimentSpec, protocols: tuple[str, ...], bandwidth: float | None = None
) -> tuple[OptimizationKnobs, str, list[PhaseCosts]]:
    """The spec's knobs and cost mode, and the PhaseCosts of each protocol
    on its network, from one model load.

    With no mode given, identity knobs price in table mode and any other
    knobs in component mode; table mode with knobs is phase_costs' error.
    """
    knobs = parse_knobs(spec.knobs)
    mode = spec.mode or ("table" if knobs.is_identity else "component")
    cm = load_shipped_model()
    arch = resolve_arch(spec.model, spec.dataset)
    costs = [
        phase_costs(cm, p, arch, bandwidth=bandwidth, knobs=knobs, mode=mode) for p in protocols
    ]
    return knobs, mode, costs


def _spec_config(spec: ExperimentSpec, rate: float, cap_gb: float) -> SimConfig:
    return SimConfig(
        arrival_rate=rate,
        horizon_s=spec.horizon_s,
        n_runs=spec.n_runs,
        server_capacity_bytes=spec.server_capacity_gb * 1e9,
        client_capacity_bytes=cap_gb * 1e9,
        concurrency=spec.concurrency,
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
    _, _, (costs,) = _spec_costs(spec, spec.protocols[:1])
    config = _spec_config(spec, spec.rates[0], spec.client_capacity_gb[0])
    row = sweep.sweep_point(costs, config, spec.seed)
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
    if args.jobs < 1:
        raise SpecError(f"--jobs must be at least 1, got {args.jobs}")
    spec = _spec_from_args(args)
    _, _, per_protocol = _spec_costs(spec, spec.protocols)
    tasks = []
    for costs in per_protocol:
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
    arch = resolve_arch(args.model if args.arch is None else args.arch, args.dataset)
    if args.protocol == "both":
        protocols = (Protocol.SERVER_GARBLER, Protocol.CLIENT_GARBLER)
    else:
        try:
            protocols = (Protocol.parse(args.protocol),)
        except InvalidCostInput:
            raise SpecError(f"unknown protocol {args.protocol!r}; use sg, cg or both") from None
    if args.trials < 0:
        raise SpecError(f"--trials must be non-negative, got {args.trials}")
    if args.seed < 0:
        raise SpecError(f"--seed must be non-negative, got {args.seed}")
    if args.trials == 0:
        print("warning: zero trials requested; nothing verified")
        return EXIT_OK

    result = verify_against_plaintext(
        arch, seed=args.seed, trials=args.trials, protocols=protocols, force=args.force
    )
    for protocol in protocols:
        exact = result.exact(protocol)
        status = "pass" if exact.all() else "FAIL"
        print(f"{protocol.short}: {status} ({exact.sum()}/{exact.size} trials exact)")

    inputs = CommInputs.from_arch(arch)
    for protocol in protocols:
        transcript = result.transcripts[protocol]
        off_model = offline_comm(protocol, inputs)
        on_model = online_comm(protocol, inputs)
        off_c2s = transcript.total_bytes("offline", "c2s")
        off_s2c = transcript.total_bytes("offline", "s2c")
        on_c2s = transcript.total_bytes("online", "c2s")
        on_s2c = transcript.total_bytes("online", "s2c")
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
    counts = count(arch)
    kinds = layer_kind_counts(arch)
    _print_kv("name", arch.name)
    _print_kv("dataset", f"{arch.dataset.name} ({arch.dataset.channels}x"
              f"{arch.dataset.height}x{arch.dataset.width}, "
              f"{arch.dataset.classes} classes)")
    _print_kv("layers", ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    _print_kv("skips", str(len(arch.skips)))
    _print_kv("params", f"{counts.params:,}")
    _print_kv("flops", f"{counts.flops:,}")
    _print_kv("relus", f"{counts.relus:,}")
    _print_kv("linear units", str(counts.n_units))
    print("ok")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused by every later
    one, so repeated in-process calls of main leave no parser as garbage."""
    parser = argparse.ArgumentParser(
        prog="pisim",
        description="Cost modeling and discrete-event simulation of "
        "two-party private-inference serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_key_flags(p: argparse.ArgumentParser, keys=tuple(_SPEC_KEYS)) -> None:
        for key in keys:
            meta = _SPEC_KEYS[key]
            if meta["flag"]:
                p.add_argument(meta["flag"], dest=key, default=None, help=meta["help"])

    p_cost = sub.add_parser("cost", help="print per-inference phase costs")
    add_key_flags(p_cost, ("model", "dataset", "knobs", "mode"))
    p_cost.add_argument("--protocol", default="sg", help="sg or cg")
    p_cost.add_argument("--bandwidth", type=float, default=None, help="link bytes/s")
    p_cost.set_defaults(fn=cmd_cost)

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", nargs="?", default=None,
                       help="experiment spec: @name, shipped name, or path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any experiment key (repeatable, last wins)")
        p.add_argument("--profile", choices=("ci",), default=None,
                       help="ci: 4 h horizon, 10 runs")
        add_key_flags(p)

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
    except PisimError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN

"""Set-up probe, run in a fresh interpreter: import pisim's layers one by one
in a fixed order, then make one load_shipped_model and one phase_costs call.

Prints one JSON object of CPU seconds of this process (user + system), which
a shared host's stolen or idle time does not inflate. setup_cpu_s is the CPU
time from before the first pisim import to the end of the load_shipped_model
call, which is nearly all of what `pisim cost` costs; setup_s is the same at
the reference speed (see speed.py), from reference loops run just before and
just after it.
"""

import importlib
import json
import sys
import time

from speed import at_reference_speed, reference_loop

IMPORT_ORDER = ["pisim.costmodel", "pisim.protocol", "pisim.desim", "pisim.cli"]


def main() -> None:
    out = {}
    loop_before = reference_loop()
    t0 = time.process_time()
    for name in IMPORT_ORDER:
        start = time.process_time()
        importlib.import_module(name)
        out["import." + name.split(".")[1] + "_s"] = time.process_time() - start
    cli = sys.modules["pisim.cli"]
    start = time.process_time()
    model = cli.load_shipped_model()
    end = time.process_time()
    out["costmodel.calibrate_s"] = end - start
    out["setup_cpu_s"] = end - t0
    out["setup_s"] = at_reference_speed(end - t0, loop_before, reference_loop())

    arch = cli.build_preset("resnet32", "cifar100")
    start = time.process_time()
    cli.phase_costs(model, cli.Protocol.SERVER_GARBLER, arch)
    out["costmodel.phase_costs_ms"] = (time.process_time() - start) * 1e3
    out["costmodel.worst_residual"] = model.report.max_latency_residual
    out["pisim_file"] = cli.__file__
    print(json.dumps(out))


if __name__ == "__main__":
    main()

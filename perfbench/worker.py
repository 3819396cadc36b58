"""One execution of a workload, in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the commands to pass to ``surfvort.cli.main`` and whether to
trace. The worker times each command, with phase timers around the CLI's
``build_run`` and ``integrate`` calls only, and writes the phase times, the
process's peak RSS and (when tracing) the per-layer spans to RESULT.

Times are CPU seconds of this process (``time.process_time``). On a shared
virtual machine the hypervisor takes the CPU away from the guest for a
share of the time that changes from minute to minute (10-30 % on the
2-CPU reference machine); wall-clock times carry that loss, CPU time does
not, though it still follows the speed the shared CPU runs at. The benchmark runs BLAS with one thread, so the process's CPU time is
the workload's own work; the wall-clock time is kept in RESULT for
reference.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _phase_timer(sink: list, fn):
    def timed(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.process_time() - start)

    return timed


def _output_stats(out_dirs: list[str]) -> tuple[int, int]:
    """Bytes written under the command output directories, and trajectory rows."""
    total = rows = 0
    for d in out_dirs:
        for entry in sorted(os.listdir(d)) if os.path.isdir(d) else ():
            path = os.path.join(d, entry)
            total += os.path.getsize(path)
            if entry == "trajectories.csv":
                with open(path, "rb") as fh:
                    rows += sum(1 for _ in fh) - 1
    return total, rows


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = None
    if spec["trace"]:
        import surfvort.cli  # noqa: F401  (bind every module before wrapping)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from surfvort import cli

    setups: list[float] = []
    integrations: list[float] = []
    cli.build_run = _phase_timer(setups, cli.build_run)
    cli.integrate = _phase_timer(integrations, cli.integrate)

    commands = []
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    for label, argv in spec["commands"]:
        kind = label.split(":", 1)[0]
        n_setup, n_int = len(setups), len(integrations)
        start = time.process_time()
        if tracer is not None:
            code = tracer.call(f"cli.{kind}", cli.main, argv)
        else:
            code = cli.main(argv)
        elapsed = time.process_time() - start
        commands.append({
            "label": label,
            "kind": kind,
            "exit_code": code,
            "elapsed_s": elapsed,
            "setup_s": sum(setups[n_setup:]),
            "integrate_s": sum(integrations[n_int:]),
        })
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - wall_start

    def command_sum(kind, key):
        return sum(c[key] for c in commands if c["kind"] == kind)

    result = {
        "commands": commands,
        "total_s": cpu,
        "wall_clock_s": wall,
        "setup_s": sum(setups),
        "integrate_s": sum(integrations),
        "field_s": command_sum("field", "elapsed_s") - command_sum("field", "setup_s"),
        "write_s": (command_sum("run", "elapsed_s") - command_sum("run", "setup_s")
                    - command_sum("run", "integrate_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["output_bytes"], result["trajectory_rows"] = _output_stats(spec["out_dirs"])
    if tracer is not None:
        result["trace"] = {
            "self_s": {f"{phase}|{layer}": v for (phase, layer), v in tracer.self_s.items()},
            "calls": {f"{phase}|{layer}": v for (phase, layer), v in tracer.calls.items()},
            "counters": dict(tracer.counters),
            "absent": tracer.absent,
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

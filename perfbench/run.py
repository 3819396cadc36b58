"""surfvort benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload mesh_blob --seed 1 --seconds 20 --trace 0

The workload's inputs are made from --seed. The run then repeats rounds until
--seconds have passed. A round executes the workload three times, each time
in a fresh worker process that drives ``surfvort.cli.main``. The first
execution's outputs go through the independent checks in checks.py; the
others' must be byte-identical to them. With --trace 1 the second and third
executions are traced (spans.py) and the per-layer metrics are reported
instead of the end-to-end ones; the first stays untraced, which gives the
tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 80


def _metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer"), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Tally:
    """Operations attempted and failed; a failure's detail goes to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {label}: {detail}", file=sys.stderr)

    def check(self, label: str, fn, *args, **kwargs) -> None:
        try:
            ok, detail = fn(*args, **kwargs)
        except Exception as exc:  # an unreadable or malformed output fails its check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(label, ok, detail)


def execute(wl: workloads.Workload, in_dir: str, out_dir: str, trace: bool) -> dict:
    """Run the workload's commands once in a fresh worker process."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    commands = wl.commands(in_dir, out_dir)
    spec = {
        "commands": commands,
        "trace": trace,
        "out_dirs": [argv[argv.index("--out") + 1] for _, argv in commands],
    }
    spec_path = out_dir + ".spec.json"
    result_path = out_dir + ".result.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    # One BLAS thread: the worker's CPU time is then the workload's own work,
    # with no spinning helper threads in it.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(out_dir + ".log", "w", encoding="utf-8") as log:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                              cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; see {out_dir}.log")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(tally: Tally, wl: workloads.Workload, in_dir: str, out_dir: str) -> None:
    bound = workloads.DRIFT_BOUND[wl.name]
    for r in wl.runs:
        d = os.path.join(out_dir, r.name)
        n = len(r.strengths)
        column = "H_tilde" if r.geometry == "mesh" else "E"
        tally.check(f"{r.name} drift", checks.energy_drift, os.path.join(d, "energy.csv"), column,
                    r.diagnostics_rows, bound)
        try:
            pos = checks.trajectories(os.path.join(d, "trajectories.csv"), n, r.geometry)
            complete = pos.shape[0] == r.steps + 1
            detail = f"{pos.shape[0]} recorded steps, expected {r.steps + 1}"
        except (OSError, ValueError) as exc:
            complete, detail = False, str(exc)
        tally.record(f"{r.name} trajectory", complete, detail)

        def on_trajectory(label, fn, *args):
            # always the same operations, whether or not the trajectory is whole
            if complete:
                tally.check(label, fn, pos, *args)
            else:
                tally.record(label, False, "no complete trajectory")

        if r.geometry == "plane":
            on_trajectory(f"{r.name} impulses", checks.plane_impulses, r.strengths, bound)
        elif r.geometry == "sphere":
            on_trajectory(f"{r.name} impulse", checks.sphere_impulse, r.strengths, bound)
        else:
            mesh = os.path.join(in_dir, wl.mesh)
            tally.check(f"{r.name} map-back", checks.mapped_back_on_mesh,
                        os.path.join(d, "trajectories.csv"), n, mesh)
            tally.check(f"{r.name} sphere map", checks.sphere_map, os.path.join(d, "sphere.obj"), mesh)
        if r.closed_form == "kimura":
            on_trajectory(f"{r.name} translation", checks.kimura_translation, r.strengths, r.dt)
        elif r.closed_form == "sphere_pair":
            on_trajectory(f"{r.name} rotation", checks.sphere_pair_rotation, r.strengths, r.dt)
    runs = {r.name: r for r in wl.runs}
    for f in wl.fields:
        r = runs[f.run]
        run_dir = os.path.join(out_dir, r.name)
        try:
            sources = checks.trajectories(os.path.join(run_dir, "trajectories.csv"),
                                          len(r.strengths), r.geometry)[0]
        except (OSError, ValueError) as exc:
            tally.record(f"field {f.run}", False, str(exc))
            continue
        tally.check(f"field {f.run}", checks.field_rows,
                    os.path.join(out_dir, f"field_{f.run}", "field.csv"), sources, r.strengths,
                    r.geometry, workloads.grid_size(f.grid),
                    sphere_obj=os.path.join(run_dir, "sphere.obj"),
                    factors_csv=os.path.join(run_dir, "factors.csv"))


def _layers(result: dict) -> dict[str, float]:
    tr = result["trace"]

    def total(table, layer):
        return sum(v for k, v in tr[table].items() if k.split("|")[1] == layer)

    def self_s(layer):
        return total("self_s", layer)

    def calls(layer):
        return total("calls", layer)

    counters = tr["counters"]
    locate_calls = calls("transport.locate")
    rhs_self = self_s("dynamics.rhs")
    steps = int(counters.get("integrator.steps", 0))
    pairs = int(counters.get("dynamics.pairs_evaluated", 0))
    return {
        "mesh.load_obj_s": self_s("mesh.load_obj"),
        "mesh.validate_s": self_s("mesh.validate"),
        "conformal.build_atlas_s": self_s("conformal.build_atlas") + self_s("conformal.cmcf"),
        "conformal.lu_factor_s": self_s("conformal.lu_factor"),
        "conformal.lu_factor_calls": calls("conformal.lu_factor"),
        "conformal.cmcf_iterations": int(counters.get("conformal.cmcf_iterations", 0)),
        "scenario.build_run_self_s": self_s("scenario.build_run"),
        "transport.sample_s": self_s("transport.sample"),
        "transport.locate_calls": locate_calls,
        "transport.locate_s": self_s("transport.locate"),
        "transport.locate_us_per_call":
            1e6 * self_s("transport.locate") / locate_calls if locate_calls else 0.0,
        "dynamics.rhs_calls": calls("dynamics.rhs"),
        "dynamics.rhs_self_s": rhs_self,
        "dynamics.pairs_evaluated": pairs,
        "dynamics.pair_rate_mps": pairs / rhs_self / 1e6 if rhs_self else 0.0,
        "dynamics.diagnostics_calls": calls("dynamics.diagnostics"),
        "dynamics.diagnostics_self_s": self_s("dynamics.diagnostics"),
        "dynamics.map_back_calls": calls("dynamics.map_back"),
        "dynamics.map_back_self_s": self_s("dynamics.map_back"),
        "dynamics.field_eval_s": self_s("dynamics.field_eval"),
        "integrator.steps": steps,
        "integrator.self_s": self_s("integrator.run"),
        "integrator.step_overhead_us": 1e6 * self_s("integrator.run") / steps if steps else 0.0,
        "cli.output_bytes": result["output_bytes"],
        "cli.trajectory_rows": result["trajectory_rows"],
    }


def _print_account(traced: list[dict]) -> None:
    """Per phase: the phase's time and the median self time of each layer in it."""
    phases = {"setup": "setup_s", "integrate": "integrate_s", "field": "field_s", "write": "write_s"}
    for phase, metric in phases.items():
        layers = sorted({k.split("|")[1] for r in traced for k in r["trace"]["self_s"]
                         if k.split("|")[0] == phase})
        parts = {layer: statistics.median(r["trace"]["self_s"].get(f"{phase}|{layer}", 0.0)
                                          for r in traced) for layer in layers}
        measured = statistics.median(r[metric] for r in traced)
        body = ", ".join(f"{k} {v:.4f}" for k, v in sorted(parts.items(), key=lambda kv: -kv[1]))
        print(f"account {phase}: {metric} {measured:.4f} = sum {sum(parts.values()):.4f} "
              f"[{body}]", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "surfvort", "cli.py")):
        print("error: no surfvort sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    base = os.path.join(OUT, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    in_dir = os.path.join(base, "in")
    wl = workloads.make(args.workload, args.seed, in_dir)

    tally = Tally()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        dirs = [os.path.join(base, x) for x in ("a", "b", "c")]
        reps = [execute(wl, in_dir, d, trace=bool(args.trace) and i > 0) for i, d in enumerate(dirs)]
        for rep in reps:
            for c in rep["commands"]:
                tally.record(c["label"], c["exit_code"] == 0, f"exit code {c['exit_code']}")
        check_outputs(tally, wl, in_dir, dirs[0])
        reference = checks.output_digests(dirs[0])
        for d in dirs[1:]:
            tally.check(f"repeat {os.path.basename(d)} identical", checks.identical_outputs,
                        reference, checks.output_digests(d))
        plain.append(reps[0])
        (traced if args.trace else plain).extend(reps[1:])
        if time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        _print_account(traced)
        absent = sorted({name for r in traced for name in r["trace"]["absent"]})
        if absent:
            print(f"absent (reported as 0): {', '.join(absent)}", file=sys.stderr)
        units = _metric_units("per_layer")
        layers = [_layers(r) for r in traced]

        def median_of(key):
            # a count stays whole: of an even number of counts, take the lower middle one
            pick = statistics.median_low if units[key] in ("count", "bytes") else statistics.median
            return pick(x[key] for x in layers)

        values = {k: median_of(k) for k in layers[0]}
        values["trace.overhead_s"] = (statistics.median(r["total_s"] for r in traced)
                                      - statistics.median(r["total_s"] for r in plain))
    else:
        units = _metric_units("end_to_end")
        values = {k: statistics.median(r[k] for r in plain) for k in units}
    print(f"{len(plain) + len(traced)} executions in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

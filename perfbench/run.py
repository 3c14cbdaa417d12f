"""Seeded, layer-attributed benchmark of the MAHJONG reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mahjong_pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process, one thread, closed loop: each cell starts when the previous
one has returned.  A run sets up its inputs (several times, reporting
the median), then runs whole rounds of cells until ``--seconds`` have
been timed, checking every cell outside the timed region.  The timings
take each cell of the round at its mean time over the rounds, at the
pace of a fixed probe run before every cell (``pace_probe``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics, a self-time table and a
Chrome trace under ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("mahjong_pipeline", "deep_context", "edit_loop")
#: set-up repetitions per run; ``setup_s`` reports their median.  The
#: first sets up the measured workload; the others set up a throwaway
#: one after each of the first rounds, so the repeats spread over the
#: run rather than falling into one fast or slow spell of the host.
SETUP_REPEATS = 3
#: the percentile of the round's cells ``cell_s_tail`` reports
TAIL_PERCENTILE = 75
#: a run repeats every cell of a round at least this many times; the
#: end-to-end timings take each cell's mean time over its repeats
MIN_ROUNDS = 3
#: pace probes before each cell (see ``pace_probe``)
PACE_SAMPLES = 2
#: the typical mean ``pace_probe`` time of a run on the VM of the
#: README's readings.  Times are reported at this pace: measured seconds
#: times ``PACE_REF_S`` over the run's mean probe time.
PACE_REF_S = 0.024
#: the timed loop stops after this many times ``--seconds`` of wall
#: clock even if cells fail or run slow, so a broken change still ends
#: the run (and reports its failures) within the time limit
LOOP_LIMIT = 3


@functools.lru_cache(maxsize=None)
def units() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside a
    git work tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload) -> dict:
    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "load_model": "closed loop, 1 process, 1 thread, cells back to back",
        "composition": workload.composition(),
    }


def pace_probe() -> float:
    """Seconds for a fixed piece of pure-Python work that uses no code of
    the repository: worklist propagation of big-int sets along a dict of
    successor lists, the kinds of operation the solver spends its time
    in.  The host runs all code at a speed that changes within seconds
    (see the README's *Why paced times*); the mean of these probes over
    a run measures the speed the run's cells saw.  The collector is off
    while it runs, so the size of the workload's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    begin = time.perf_counter()
    try:
        for stride in range(31, 35):
            succs = {}
            for i in range(6000):
                succs.setdefault(i % 997, []).append(i * stride % 997)
            pts = {}
            work = list(range(997))
            for _ in range(20000):
                if not work:
                    break
                node = work.pop()
                bits = pts.get(node, 0) | (1 << (node % 300))
                pts[node] = bits
                for succ in succs.get(node, ()):
                    old = pts.get(succ, 0)
                    if old | bits != old:
                        pts[succ] = old | bits
                        work.append(succ)
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()


def tail(times) -> float:
    """The ``TAIL_PERCENTILE``-th percentile, interpolated between ranks
    (a nearest rank jumps between neighbouring cells of the round)."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100,
                                method="inclusive")[TAIL_PERCENTILE - 1]


def timings(times) -> dict:
    return {"cell_s_p50": statistics.median(times), "cell_s_tail": tail(times),
            "cells_per_s": len(times) / sum(times)}


def one_cell(cell, gate, lt, traced: bool, first_round: bool, counts):
    """Run and check one cell; returns (seconds, problems).  Any
    exception is a failed cell, never the end of the run; the seconds
    count up to the exception."""
    lt.activate(traced)
    start = time.perf_counter()
    try:
        with lt.span("cell", label=cell.label):
            run = cell.execute(lt)
    except Exception as exc:
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return seconds, [f"raised {type(exc).__name__}: {exc}"]
    finally:
        lt.activate(False)
    seconds = time.perf_counter() - start
    try:
        problems = gate.check(cell, run, first_round)
        # A cell that fails a check still adds its counts: dropping them
        # would read as fewer casts, sites and edges, i.e. as a gain.
        if first_round and run.result is not None:
            counts.add(cell, run)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return seconds, problems


def timed_setup(workload, lt) -> float:
    gc.collect()
    begin = time.perf_counter()
    workload.setup(lt)
    return time.perf_counter() - begin


def run_loop(workload, gate, lt, seconds: float, trace: bool,
             after_round) -> dict:
    """Whole rounds until the attempted cells took ``seconds`` and at
    least ``MIN_ROUNDS`` rounds ran (when tracing, two: one untraced and
    one traced), or until ``LOOP_LIMIT`` times ``seconds`` have passed,
    whichever is first."""
    times = {False: [], True: []}
    by_label = {}
    #: (traced, position in the round) -> the times of that cell
    by_position = {}
    paces = []
    attempted = failed = 0
    failures = []
    cache_before = workload.cache.stats() if workload.cache else None
    measured = 0.0
    index = 0
    deadline = time.perf_counter() + LOOP_LIMIT * seconds
    over_time = False
    while not over_time:
        traced = trace and index % 2 == 1
        for position, cell in enumerate(workload.round(index)):
            attempted += 1
            # Each cell starts from a collected heap, so a full pass
            # triggered inside it scans only what it and the workload's
            # live state hold, never earlier cells' garbage.
            gc.collect()
            paces += [pace_probe() for _ in range(PACE_SAMPLES)]
            seconds_taken, problems = one_cell(cell, gate, lt, traced,
                                               index == 0, workload.counts)
            measured += seconds_taken
            if problems:
                failed += 1
                failures += [f"round {index} {cell.label}: {p}" for p in problems]
            else:
                times[traced].append(seconds_taken)
                by_position.setdefault((traced, position), []).append(seconds_taken)
                if not traced:
                    by_label.setdefault(cell.label, []).append(seconds_taken)
            over_time = time.perf_counter() >= deadline
            if over_time:
                break
        if index == 0:
            workload.counts.note_cache(workload.cache, cache_before)
        index += 1
        after_round()
        if measured >= seconds and index >= (2 if trace else MIN_ROUNDS):
            break
    first_round = hashlib.sha256("\n".join(gate.first_round).encode())
    per_position = {traced: [v for (t, _), v in sorted(by_position.items())
                             if t == traced] for traced in (False, True)}
    return {"untraced": times[False], "traced": times[True],
            "per_position": per_position[False],
            "means": {traced: [statistics.mean(v) for v in per_position[traced]]
                      for traced in (False, True)},
            "pace_s": statistics.mean(paces),
            "first_round_digest": first_round.hexdigest(),
            "attempted": attempted, "failed": failed,
            "failures": failures, "rounds": index,
            "counts": workload.counts.finish(),
            "by_label": by_label}


def final_checks(workload, gate) -> list:
    """The workload's once-per-run checks, as problems (never raised)."""
    try:
        return [f"final check {p}" for p in workload.final_checks(gate)]
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [f"final check raised {type(exc).__name__}: {exc}"]


def measure(args) -> int:
    import cells
    from gate import Gate
    from tracing import (TIME_METRIC, LayerTracer, instrument_cache,
                         instrument_incr)
    from repro.obs import write_chrome_trace

    def make_workload():
        if args.workload == "edit_loop":
            return cells.EditLoop(args.seed, str(OUT))
        return cells.WORKLOADS[args.workload](args.seed)

    def another_setup():
        if len(setups) < SETUP_REPEATS:
            throwaway = make_workload()
            try:
                setups.append(timed_setup(throwaway, lt))
            finally:
                throwaway.close()

    workload = make_workload()
    lt = LayerTracer(enabled=bool(args.trace))
    setup_start = time.perf_counter()
    try:
        setups = [timed_setup(workload, lt)]
        if args.trace:
            instrument_incr(lt)
            if workload.cache is not None:
                instrument_cache(lt, workload.cache)
        gate = Gate(args.seed)
        loop = run_loop(workload, gate, lt, args.seconds, bool(args.trace),
                        another_setup)
        # Read before the final checks, whose extra solves are not part
        # of the measured work.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        final = final_checks(workload, gate)
    finally:
        lt.restore()
        workload.close()

    failed = loop["failed"] + len(final)
    times = loop["untraced"]
    counts = loop["counts"]
    scale = PACE_REF_S / loop["pace_s"]
    setup_s = (setup_start - T0) + statistics.median(setups)
    e2e = {"setup_s": scale * setup_s}
    if times:
        e2e.update(timings([scale * t for t in loop["means"][False]]))
    e2e["peak_rss_mb"] = peak_rss_mb
    for name in cells.PRECISION:
        e2e[name] = counts[name]
    record = environment(args, workload)
    record.update(
        import_s=setup_start - T0, setup_runs_s=setups, rounds=loop["rounds"],
        pace_s=loop["pace_s"], pace_scale=scale,
        first_round_digest=loop["first_round_digest"],
        cells_timed=len(times), cells_attempted=loop["attempted"],
        failed_frac=failed / loop["attempted"],
        failures=(loop["failures"] + final)[:20], end_to_end=e2e,
        cell_s_p50_by_label={label: statistics.median(values)
                             for label, values in sorted(loop["by_label"].items())},
        counts={k: v for k, v in counts.items() if k not in cells.PRECISION},
    )
    if times:
        record.update(cell_s_tail_percentile=TAIL_PERCENTILE,
                      cells_per_round=len(loop["means"][False]),
                      cell_s_by_position=loop["per_position"],
                      unpaced=dict(timings(loop["means"][False]),
                                   setup_s=setup_s))
    if args.trace:
        layer_s, traced_cells = lt.layer_seconds()
        layer_s = {layer: scale * s for layer, s in layer_s.items()}
        metrics = {metric: layer_s.get(layer, 0.0) / max(1, traced_cells)
                   for layer, metric in TIME_METRIC.items()}
        metrics.update(record["counts"])
        if times and loop["traced"]:
            metrics["trace.p50_ratio"] = (statistics.median(loop["means"][True])
                                          / statistics.median(loop["means"][False]))
        record.update(traced_cells=traced_cells, per_layer=metrics)
        print_layer_table(workload.name, layer_s, traced_cells)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        write_chrome_trace(lt.sink.events, str(trace_path))
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    else:
        metrics = e2e
    print(row(workload.name, e2e, failed, loop["attempted"]))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units()[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def print_layer_table(name: str, layer_s: dict, traced_cells: int) -> None:
    total = sum(layer_s.values()) or 1.0
    print(f"self time per layer, {name}, over {traced_cells} traced cells")
    for layer, seconds in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<20} {seconds / max(1, traced_cells):10.4f} s/cell"
              f"  {100 * seconds / total:5.1f}%")


def row(name: str, metrics: dict, failed: int, attempted: int) -> str:
    return f"{name:<18}" + "  ".join(
        [f"{key}={value:.5g} {units()[key]}" for key, value in metrics.items()]
        + [f"failed={failed}/{attempted}"])


def run_all(args) -> int:
    """Each workload in its own process, one row each."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name:<18}failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(row(name, values, result["failed"], result["attempted"]))
        ok = ok and result["correct"]
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run it from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``mahjong-repro``.

Subcommands:

* ``analyze FILE --analysis M-2obj`` — parse a mini-Java source file,
  run a named analysis, print client metrics;
* ``merge FILE`` — run only the pre-analysis + MAHJONG and print the
  equivalence classes;
* ``generate PROFILE [-o FILE]`` — emit a synthetic workload as source;
* ``batch ...`` — run one configuration over a whole corpus with
  per-program failure isolation (alias of ``python -m repro.bench batch``);
* ``bench <harness> ...`` — alias of ``python -m repro.bench``;
* ``serve --port N ...`` — boot the analysis service daemon
  (:mod:`repro.serve`, see ``docs/service.md``);
* ``trace summarize|validate FILE`` — inspect a trace artifact written
  by ``analyze --trace/--trace-out`` or ``batch --trace-dir``
  (:mod:`repro.obs`).

Exit codes: 0 success, 1 analysis did not succeed (legacy), 2 bad
usage, 3 resource budget exhausted on every degradation rung, 4 batch
``--strict`` with unusable records.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]


#: ``analyze`` exit code when every degradation rung blew its budget.
EXIT_EXHAUSTED = 3


def _cmd_analyze(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro import faults, obs
    from repro.analysis.governor import ResourceGovernor
    from repro.analysis.pipeline import run_analysis
    from repro.core.merging import MergeOptions
    from repro.frontend import parse_program

    with open(args.file, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())

    degrade = False if args.no_degrade else (args.ladder or "auto")
    merge_options = None
    if args.jobs is not None:
        merge_options = MergeOptions(jobs=args.jobs, pool=args.pool)
    governor = None
    if args.max_iterations is not None or args.memory_mb is not None:
        governor = ResourceGovernor.from_limits(
            memory_mb=args.memory_mb,
            max_iterations=args.max_iterations,
            check_stride=args.check_stride,
        )
    plan_scope = (
        faults.active(faults.FaultPlan.parse(args.faults,
                                             seed=args.faults_seed, stride=1))
        if args.faults else nullcontext()
    )
    tracer = None
    mem_sink = None
    sinks = []
    if args.trace:
        mem_sink = obs.InMemorySink()
        sinks.append(mem_sink)
    if args.trace_out:
        sinks.append(obs.JsonlSink(args.trace_out))
    if sinks:
        tracer = obs.Tracer(sinks=tuple(sinks))
    scc = None if args.scc is None else (args.scc == "on")
    artifact_cache = None
    if args.cache_dir:
        from repro.incr import ArtifactCache

        try:
            artifact_cache = ArtifactCache(args.cache_dir)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        with plan_scope:
            run = run_analysis(program, args.analysis,
                               timeout_seconds=args.budget,
                               merge_options=merge_options,
                               governor=governor, degrade=degrade, scc=scc,
                               tracer=tracer,
                               artifact_cache=artifact_cache)
    except Exception as exc:  # noqa: BLE001 - classified, not a traceback
        from repro.analysis.pipeline import classify_failure

        if tracer is not None:
            tracer.close()
        failure = classify_failure(exc)
        phase = failure.phase or "main"
        print(f"error: {failure.kind} failure in {phase} phase "
              f"({failure.error_type}): {failure.detail}", file=sys.stderr)
        return 1
    if tracer is not None:
        tracer.close()
        if mem_sink is not None:
            obs.write_chrome_trace(mem_sink.events, args.trace)
            print(f"wrote {args.trace}", file=sys.stderr)
        if args.trace_out:
            print(f"wrote {args.trace_out}", file=sys.stderr)
    for key, value in run.metrics().items():
        print(f"{key}: {value}")
    if run.timed_out:
        cause = run.exhaustion_cause or "time"
        phase = run.failed_phase or "main"
        print(f"error: {cause} budget exhausted in {phase} phase "
              f"(tried: {', '.join(a.config for a in run.attempts) or args.analysis})",
              file=sys.stderr)
        return EXIT_EXHAUSTED
    if run.degraded:
        print(f"warning: {args.analysis} exhausted its budget; "
              f"degraded to {run.config.name}", file=sys.stderr)
    return 0 if run.succeeded else 1


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.analysis.pipeline import run_pre_analysis
    from repro.core.heap_modeler import describe_classes
    from repro.core.merging import MergeOptions
    from repro.frontend import parse_program

    with open(args.file, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    merge_options = None
    if args.jobs is not None:
        merge_options = MergeOptions(jobs=args.jobs, pool=args.pool)
    pre = run_pre_analysis(program, merge_options)
    merge = pre.merge
    print(f"objects: {merge.object_count_before} -> "
          f"{merge.object_count_after} "
          f"({100 * merge.reduction:.0f}% reduction)")
    for report in describe_classes(pre.fpg, merge, limit=args.limit):
        print(report)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.ir.printer import print_program
    from repro.workloads import load_profile

    program = load_profile(args.profile, args.scale)
    text = print_program(program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({program.stats()})")
    else:
        print(text)
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    from repro.analysis.pipeline import run_pre_analysis
    from repro.frontend import parse_program
    from repro.viz import call_graph_to_dot, fpg_to_dot, hierarchy_to_dot

    with open(args.file, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    if args.kind == "hierarchy":
        dot = hierarchy_to_dot(program)
    elif args.kind == "callgraph":
        from repro.pta.solver import Solver

        result = Solver(program).solve()
        dot = call_graph_to_dot(result.call_graph_edges(), program)
    else:  # fpg
        pre = run_pre_analysis(program)
        mom = pre.merge.mom if args.merged else None
        dot = fpg_to_dot(pre.fpg, mom)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dot + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.pipeline import run_analysis, run_pre_analysis
    from repro.export import (
        analysis_run_to_dict,
        dump_json,
        pre_analysis_to_dict,
    )
    from repro.frontend import parse_program

    with open(args.file, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    pre = run_pre_analysis(program)
    payload = {
        "program": program.stats(),
        "pre_analysis": pre_analysis_to_dict(pre),
        "analyses": {},
    }
    for name in args.analyses.split(","):
        name = name.strip()
        if not name:
            continue
        run = run_analysis(program, name, timeout_seconds=args.budget,
                           pre=pre if name.startswith("M-") else None)
        payload["analyses"][name] = analysis_run_to_dict(run)
    dump_json(payload, args.output if args.output else __import__("sys").stdout)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    payload = obs.load_trace_file(args.file)
    if args.action == "validate":
        # a JSONL event log is validated by round-tripping it through
        # the typed events and the Chrome exporter; a Chrome trace is
        # checked directly against the exporter's schema
        if (isinstance(payload, list) and payload
                and isinstance(payload[0], dict) and "kind" in payload[0]):
            try:
                events = [obs.event_from_dict(item) for item in payload]
            except (KeyError, TypeError, ValueError) as exc:
                errors = [f"bad JSONL event: {exc}"]
            else:
                errors = obs.validate_chrome_trace(obs.to_chrome_trace(events))
        else:
            errors = obs.validate_chrome_trace(payload)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            print(f"{args.file}: INVALID ({len(errors)} error(s))",
                  file=sys.stderr)
            return 1
        print(f"{args.file}: OK")
        return 0
    print(obs.summarize_trace_payload(payload))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.bench.batch import main as batch_main

    return batch_main(args.rest)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main([args.harness, *args.rest])


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import main as serve_main

    return serve_main(args.rest)


def _config_name(value: str) -> str:
    """``--analysis`` type: a configuration name that parses, so a typo
    is a usage error (exit 2) before any phase runs."""
    from repro.analysis.config import parse_config

    try:
        parse_config(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahjong-repro",
        description="MAHJONG (PLDI 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run a points-to analysis")
    analyze.add_argument("file")
    analyze.add_argument("--analysis", default="M-2obj", type=_config_name)
    analyze.add_argument("--budget", type=float, default=None,
                         help="main-analysis timeout in seconds")
    analyze.add_argument("--no-degrade", action="store_true",
                         help="fail instead of walking the degradation ladder")
    analyze.add_argument("--ladder", default=None,
                         help="explicit comma-separated degradation rungs")
    analyze.add_argument("--max-iterations", type=int, default=None,
                         help="solver iteration budget per phase")
    analyze.add_argument("--memory-mb", type=float, default=None,
                         help="peak-memory watermark budget in MiB")
    analyze.add_argument("--check-stride", type=int, default=1024,
                         help="governor sampling stride (power of two)")
    analyze.add_argument("--faults", default=None,
                         help="deterministic fault-injection spec "
                              "(see repro.faults)")
    analyze.add_argument("--faults-seed", type=int, default=0)
    analyze.add_argument("--scc", choices=("on", "off"), default=None,
                         help="constraint-graph condensation (default: "
                              "@scc/@noscc suffix, then $REPRO_SCC, then on)")
    analyze.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="on-disk artifact cache for pre-analysis/FPG/"
                              "merge reuse across invocations")
    analyze.add_argument("--trace", default=None, metavar="FILE",
                         help="write a chrome://tracing / Perfetto flame "
                              "chart of the run to FILE")
    analyze.add_argument("--trace-out", default=None, metavar="FILE",
                         help="write the raw JSONL span/event log to FILE")
    analyze.add_argument("--jobs", type=int, default=None,
                         help="run the merge phase on N workers (0 = one "
                              "per core; default $REPRO_JOBS or serial)")
    analyze.add_argument("--pool", choices=("thread", "process"),
                         default="thread",
                         help="worker pool kind for --jobs (default thread)")
    analyze.set_defaults(func=_cmd_analyze)

    merge = sub.add_parser("merge", help="show MAHJONG equivalence classes")
    merge.add_argument("file")
    merge.add_argument("--limit", type=int, default=20)
    merge.add_argument("--jobs", type=int, default=None,
                       help="run the merge phase on N workers (0 = one "
                            "per core; default $REPRO_JOBS or serial)")
    merge.add_argument("--pool", choices=("thread", "process"),
                       default="thread",
                       help="worker pool kind for --jobs (default thread)")
    merge.set_defaults(func=_cmd_merge)

    generate = sub.add_parser("generate", help="emit a synthetic workload")
    generate.add_argument("profile")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("-o", "--output", default=None)
    generate.set_defaults(func=_cmd_generate)

    viz = sub.add_parser("viz", help="emit Graphviz DOT")
    viz.add_argument("file")
    viz.add_argument("--kind", choices=("fpg", "callgraph", "hierarchy"),
                     default="fpg")
    viz.add_argument("--merged", action="store_true",
                     help="color FPG nodes by MAHJONG equivalence class")
    viz.add_argument("-o", "--output", default=None)
    viz.set_defaults(func=_cmd_viz)

    report = sub.add_parser("report", help="full JSON report of a program")
    report.add_argument("file")
    report.add_argument("--analyses", default="ci,2obj,M-2obj")
    report.add_argument("--budget", type=float, default=None)
    report.add_argument("-o", "--output", default=None)
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser("trace", help="inspect a trace artifact")
    trace.add_argument("action", choices=("summarize", "validate"))
    trace.add_argument("file")
    trace.set_defaults(func=_cmd_trace)

    batch = sub.add_parser(
        "batch", help="run one configuration over a corpus with "
                      "per-program failure isolation")
    batch.add_argument("rest", nargs=argparse.REMAINDER)
    batch.set_defaults(func=_cmd_batch)

    bench = sub.add_parser("bench", help="run a benchmark harness")
    bench.add_argument("harness")
    bench.add_argument("rest", nargs=argparse.REMAINDER)
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the analysis service daemon "
                      "(see docs/service.md)")
    serve.add_argument("rest", nargs=argparse.REMAINDER)
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse's REMAINDER refuses leading options; dispatch the two
    # pass-through subcommands by hand so e.g. ``batch --corpus all``
    # reaches the batch parser intact.
    if argv and argv[0] == "batch":
        from repro.bench.batch import main as batch_main

        return batch_main(argv[1:])
    if len(argv) >= 2 and argv[0] == "bench":
        from repro.bench.__main__ import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

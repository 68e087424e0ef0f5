"""Command-line interface: run the paper's pipeline from a shell.

The paper exposes programmer decisions (never-wrap, exception-free,
manual-fix) through a web interface; here they live in a JSON *policy
file* passed to the relevant subcommands::

    {
      "never_wrap": ["Stack.push"],
      "manual_fix": [],
      "exception_free": ["Stack.size"],
      "wrap_conditional": false
    }

Subcommands::

    python -m repro apps                     list the evaluation applications
    python -m repro detect LinkedList        run one detection campaign
    python -m repro detect LinkedList --workers 4 --journal campaign/ --resume
                                             4 shard processes, resumable
    python -m repro validate LinkedList      detect -> mask -> re-detect
    python -m repro validate LinkedList --strategy undolog
                                             undo-log checkpointing
    python -m repro detect Stack --state-backend fingerprint
                                             one-pass state fingerprints
    python -m repro shard LinkedList --index 0 --count 4 --fragment s0.jsonl
                                             run one campaign shard
    python -m repro merge s0.jsonl s1.jsonl s2.jsonl s3.jsonl
                                             coordinator merge of fragments
    python -m repro serve --port 8642        campaign service (queue + cache)
    python -m repro serve --cache-path cache.jsonl --policy shed-oldest
                                             persistent cache + load shedding
    python -m repro chaos LLMap --seed 7 --shards 3
                                             seeded fault injection: supervised
                                             campaign must converge bit-identical
    python -m repro fuzz --seed 7 --programs 200
                                             differential fuzzing vs oracle
    python -m repro fuzz --self-check        plant defects, assert caught
    python -m repro fuzz --variants 3        invariance across AST variants
    python -m repro variants LinkedList --check
                                             metamorphic variant corpus
    python -m repro table1                   regenerate Table 1
    python -m repro figure 3                 regenerate Figure 2/3/4
    python -m repro fig5                     masking overhead grid
    python -m repro fixes                    the §6.1 LinkedList narrative
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.core import WrapPolicy, format_run_provenance, render_bars
from repro.core.masking import STRATEGIES
from repro.core.policy import select_methods_to_wrap

__all__ = ["main", "build_parser", "load_policy"]


def load_policy(path: Optional[str]) -> Optional[WrapPolicy]:
    """Read a policy file (the web-interface stand-in)."""
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    unknown = set(data) - {
        "never_wrap",
        "manual_fix",
        "exception_free",
        "wrap_conditional",
    }
    if unknown:
        raise ValueError(f"unknown policy keys: {sorted(unknown)}")
    return WrapPolicy(
        never_wrap=set(data.get("never_wrap", ())),
        manual_fix=set(data.get("manual_fix", ())),
        exception_free=set(data.get("exception_free", ())),
        wrap_conditional=bool(data.get("wrap_conditional", False)),
    )


def _campaign_config(args: argparse.Namespace):
    """The one campaign config a subcommand's flags spell: every knob it
    has a flag for (``--scale`` sets ``rounds``), the rest defaulted."""
    from repro.experiments.config import CampaignConfig

    flags = dict(vars(args), rounds=getattr(args, "scale", 1))
    knobs = {knob.name for knob in dataclasses.fields(CampaignConfig)}
    return CampaignConfig(**{k: v for k, v in flags.items() if k in knobs})


def _cmd_apps(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_PROGRAMS

    for program in ALL_PROGRAMS:
        print(f"{program.language:4s}  {program.name}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.experiments import program_by_name, run_campaign

    policy = load_policy(args.policy)
    outcome = run_campaign(
        program_by_name(args.app),
        _campaign_config(args),
        policy=policy,
        resume=args.resume,
        journal=args.journal,
    )
    report = outcome.report
    _print_campaign(
        f"{report.name}: {report.class_count} classes, "
        f"{report.method_count} methods, "
        f"{report.injection_count} injections",
        report,
        outcome.classification,
        outcome.detection,
        args.save_log,
        wrap=select_methods_to_wrap(
            outcome.classification, policy or WrapPolicy()
        ),
    )
    return 0


def _print_campaign(
    title, report, classification, detection, save_log, wrap=None
) -> None:
    """The classification block ``detect`` and ``merge`` both print."""
    print(title)
    print(format_run_provenance(classification))
    print(render_bars(report.fractions_by_methods()))
    print()
    for key in sorted(classification.methods):
        mc = classification.methods[key]
        print(f"  {mc.category:12s} {key}  (calls={mc.calls})")
    if wrap is not None:
        print(f"\nmethods the masking phase would wrap: {wrap}")
    if detection.telemetry is not None:
        print("\n-- campaign telemetry --")
        print(detection.telemetry.summary())
    if save_log:
        detection.log.save(save_log)
        print(f"run log written to {save_log}")


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.experiments import program_by_name, run_shard

    result = run_shard(
        program_by_name(args.app),
        args.index,
        args.count,
        args.fragment,
        _campaign_config(args),
        resume=args.resume,
    )
    print(
        f"shard {result.shard_index}/{result.shard_count}: "
        f"{len(result.points)} of {result.total_points} point(s) -> "
        f"{result.fragment_path}"
    )
    print(
        f"  executed={result.executed} resumed={result.resumed} "
        f"derived={result.derived}"
    )
    print(f"  wall={result.wall_seconds:.3f}s")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.core.report import build_app_report
    from repro.experiments import merge_fragments

    merged = merge_fragments(args.fragments)
    classification = merged.classify(load_policy(args.policy))
    report = build_app_report(
        merged.detection.program, merged.detection, classification
    )
    _print_campaign(
        f"{report.name}: merged {len(args.fragments)} fragment(s) -> "
        f"{report.class_count} classes, {report.method_count} methods, "
        f"{report.injection_count} injections",
        report,
        classification,
        merged.detection,
        args.save_log,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    serve(
        args.host,
        args.port,
        queue_size=args.queue_size,
        cache_capacity=args.cache_capacity,
        cache_path=args.cache_path,
        policy=args.policy,
        max_pending_cost=args.max_pending_cost,
        max_body_bytes=args.max_body_bytes,
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import contextlib
    import json as _json
    import tempfile

    from repro.experiments import program_by_name, run_chaos_campaign
    from repro.experiments.supervise import ShardSupervisor

    program_by_name(args.app)  # fail fast on a bad name
    supervisor = ShardSupervisor(
        max_attempts=args.max_attempts,
        heartbeat_timeout=args.heartbeat_timeout,
        seed=args.seed,
    )
    with (
        tempfile.TemporaryDirectory(prefix="repro-chaos-")
        if not args.workdir
        else contextlib.nullcontext(args.workdir)
    ) as workdir:
        report = run_chaos_campaign(
            lambda: program_by_name(args.app),
            workdir,
            _campaign_config(args),
            seed=args.seed,
            shard_count=args.shards,
            supervisor=supervisor,
            hang_seconds=args.hang_seconds,
        )
    print(report.summary())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            _json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"chaos report written to {args.report_out}")
    return 0 if report.converged else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments import program_by_name, validate_masking

    validation = validate_masking(
        program_by_name(args.app),
        _campaign_config(args),
        policy=load_policy(args.policy),
        wrap_conditional=args.wrap_conditional,
        strategy=args.strategy,
    )
    print(validation.summary())
    return 0 if validation.masking_effective else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        ProgramSpec,
        check_program,
        make_failure_predicate,
        run_fuzz,
        run_self_check,
        shrink,
    )

    config = _campaign_config(args)
    if args.self_check:
        results = run_self_check(
            args.seed,
            config,
            programs_per_defect=args.programs or 8,
            max_depth=args.max_depth,
        )
        for defect, caught in sorted(results.items()):
            print(f"  {'caught ' if caught else 'MISSED '} {defect}")
        if all(results.values()):
            print("self-check passed: every planted defect was caught")
            return 0
        print("self-check FAILED: a planted defect went unnoticed",
              file=sys.stderr)
        return 1

    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as handle:
            spec = ProgramSpec.from_json(handle.read())
        verdict = check_program(
            spec,
            config,
            engine=args.engine,
            variants=args.variants,
            variant_seed=args.seed,
        )
        if verdict.ok:
            print(f"{spec.name}: all checks pass")
            return 0
        for mismatch in verdict.mismatches:
            print(f"  {mismatch.check}: {mismatch.detail}")
        return 1

    def progress(done: int, total: int, verdict) -> None:
        for mismatch in verdict.mismatches:
            print(
                f"[{done}/{total}] MISMATCH {mismatch.check} in "
                f"{mismatch.program}: {mismatch.detail}",
                file=sys.stderr,
            )

    report = run_fuzz(
        args.seed,
        args.programs,
        config,
        max_depth=args.max_depth,
        engine=args.engine,
        progress=progress,
        variants=args.variants,
    )
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    print(
        f"fuzzed {report.programs} programs (seed {report.seed}, engine "
        f"{report.engine}): {report.total_runs} campaign runs over "
        f"{report.total_points} injection points, methods by category "
        f"{report.category_counts}"
    )
    if config.trace_derive:
        print(
            f"trace equivalence checked: {report.total_derived} point(s) "
            f"derived from reference traces across all programs"
        )
    if report.variants:
        print(
            f"variant invariance checked: {report.variants} variant(s) per "
            f"program, {report.total_variant_applied} transform "
            f"application(s) across the corpus"
        )
    if report.ok:
        print("zero oracle mismatches across engines and checkpoint strategies")
        return 0
    print(
        f"{len(report.mismatches)} mismatch(es) in "
        f"{len(report.failing_programs)} program(s)",
        file=sys.stderr,
    )
    first = report.failing_programs[0]
    index = int(first.rsplit("-", 1)[1])
    from repro.fuzz import generate_guarded

    spec = generate_guarded(args.seed, index, max_depth=args.max_depth)
    if not args.no_shrink:
        checks = {m.check for m in report.mismatches if m.program == first}
        print(f"shrinking {first} (budget {args.max_shrink_evals} evals)...",
              file=sys.stderr)
        spec = shrink(
            spec,
            make_failure_predicate(
                checks,
                config,
                engine=args.engine,
                variants=args.variants,
                variant_seed=args.seed,
            ),
            max_evals=args.max_shrink_evals,
        )
    with open(args.reproducer_out, "w", encoding="utf-8") as handle:
        handle.write(spec.to_json() + "\n")
    print(
        f"minimal reproducer written to {args.reproducer_out}; replay with: "
        f"python -m repro fuzz --replay {args.reproducer_out}",
        file=sys.stderr,
    )
    return 1


def _cmd_variants(args: argparse.Namespace) -> int:
    """Generate a metamorphic variant corpus for one subject, and
    optionally run the detection-invariance oracle over it."""
    import functools
    import os

    if args.app is None and args.fuzz_seed is None:
        print("error: give an application name or --fuzz-seed",
              file=sys.stderr)
        return 2

    from repro.core.variants import (
        build_spec_variant,
        campaign_bundle,
        check_invariance,
        diff_bundles,
        grafted_variant,
        make_recipes,
    )

    recipes = make_recipes(args.seed, args.count)
    config = _campaign_config(args)
    divergences = []

    def emit(tag: int, label: str, module_dicts) -> None:
        applied = sum(len(m["applied"]) for m in module_dicts)
        print(
            f"  v{tag}: {applied} transform application(s) "
            f"(recipe {'+'.join(recipes[tag - 1])})"
        )
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{label}.v{tag}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    {"subject": label, "tag": tag, "modules": module_dicts},
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")

    if args.fuzz_seed is not None:
        from repro.fuzz import build_program, generate_program

        spec = generate_program(args.fuzz_seed, args.fuzz_index)
        print(f"subject: fuzz spec {spec.name}")
        factories = []
        for index, recipe in enumerate(recipes):
            tag = index + 1
            _program, module = build_spec_variant(spec, recipe, tag=tag)
            emit(tag, spec.name, [module.to_dict()])
            factories.append(
                (
                    f"v{tag}",
                    functools.partial(
                        lambda r, t: build_spec_variant(spec, r, tag=t)[0],
                        recipe,
                        tag,
                    ),
                )
            )
        if args.check:
            report = check_invariance(
                spec.name,
                functools.partial(build_program, spec),
                factories,
                config,
            )
            divergences = report.divergences
    else:
        from repro.experiments import program_by_name

        program = program_by_name(args.app)
        print(f"subject: application {program.name}")
        base = (
            campaign_bundle(lambda: program, config)
            if args.check
            else None
        )
        for index, recipe in enumerate(recipes):
            tag = index + 1
            with grafted_variant(program, recipe, tag=tag) as grafted:
                emit(
                    tag,
                    program.name,
                    [m.to_dict() for m in grafted.modules.values()],
                )
                if grafted.skipped_methods:
                    print(
                        f"      (skipped class-cell methods: "
                        f"{', '.join(grafted.skipped_methods)})"
                    )
                if base is not None:
                    bundle = campaign_bundle(lambda: grafted.program, config)
                    divergences.extend(
                        diff_bundles(
                            base,
                            bundle,
                            subject=program.name,
                            variant=f"v{tag}",
                        )
                    )

    if not args.check:
        return 0
    if not divergences:
        print(
            f"invariance holds: identical campaign outputs across "
            f"{args.count} variant(s)"
        )
        return 0
    for divergence in divergences:
        print(
            f"DIVERGENCE {divergence.variant} on {divergence.aspect}: "
            f"{divergence.detail}",
            file=sys.stderr,
        )
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.htmlreport import render_campaign_html
    from repro.experiments import program_by_name, run_app_campaign

    outcome = run_app_campaign(
        program_by_name(args.app),
        stride=args.stride,
        policy=load_policy(args.policy),
    )
    page = render_campaign_html(outcome.report, log=outcome.detection.log)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(page)
    print(f"report written to {args.output}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import (
        run_cpp_campaigns,
        run_java_campaigns,
        table1,
    )

    outcomes = run_cpp_campaigns(stride=args.stride) + run_java_campaigns(
        stride=args.stride
    )
    print(table1(outcomes))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import (
        figure2,
        figure3,
        figure4,
        run_cpp_campaigns,
        run_java_campaigns,
    )

    if args.number == 2:
        figures = figure2(run_cpp_campaigns(stride=args.stride))
    elif args.number == 3:
        figures = figure3(run_java_campaigns(stride=args.stride))
    elif args.number == 4:
        figures = figure4(
            run_cpp_campaigns(stride=args.stride),
            run_java_campaigns(stride=args.stride),
        )
    else:
        print("figure must be 2, 3, or 4 (use the fig5 subcommand)",
              file=sys.stderr)
        return 2
    for panel in sorted(figures):
        data = figures[panel]
        print(f"--- {data.title}")
        print(data.rendered)
        print()
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments import format_overhead_table, measure_overhead

    points = measure_overhead(calls=args.calls, repeats=args.repeats)
    print(format_overhead_table(points))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import reproduce_all

    report = reproduce_all(
        stride=args.stride,
        scale=args.scale,
        fig5_calls=args.calls,
        progress=lambda message: print(message, file=sys.stderr),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def _cmd_fixes(args: argparse.Namespace) -> int:
    from repro.experiments import compare_linkedlist_fixes

    comparison = compare_linkedlist_fixes(stride=args.stride)
    print(comparison.summary())
    print(f"pure before: {comparison.pure_before}")
    print(f"pure after : {comparison.pure_after}")
    return 0


def _add_trace_derive_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-derive",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="derive the verdicts of trace-decidable injection points "
             "from ONE instrumented reference execution instead of "
             "re-running the subject per point (default: off; "
             "classification is identical, derived runs carry "
             "provenance=trace; composes with every --state-backend; "
             "note the instrumented reference run still happens even "
             "when every point is decided without execution)")


def _add_state_backend_flag(parser: argparse.ArgumentParser) -> None:
    from repro.core.state import BACKENDS

    parser.add_argument(
        "--state-backend", choices=tuple(BACKENDS), default="graph",
        help="how campaigns compare before/after state (default: graph): "
             "full object-graph isomorphism (graph, the reference) or "
             "one-pass 128-bit digests with a graph fallback for "
             "diagnostics (fingerprint; identical classification and "
             "identical logs, faster)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Detect and mask non-atomic exception handling "
        "(DSN 2003 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the evaluation applications").set_defaults(
        func=_cmd_apps
    )

    detect = sub.add_parser("detect", help="run one detection campaign")
    detect.add_argument("app", help="application name (see `apps`)")
    detect.add_argument("--stride", type=int, default=1)
    detect.add_argument("--scale", type=int, default=1,
                        help="workload repetitions (quadratic cost)")
    detect.add_argument("--policy", help="JSON policy file")
    detect.add_argument("--save-log", help="write the run log (JSON)")
    detect.add_argument(
        "--workers", type=int, default=None,
        help="run the campaign as N shards in N child processes at once "
             "(results are identical to the sequential engine)")
    detect.add_argument(
        "--journal", default=None,
        help="campaign journal directory: one fragment per shard "
             "(shard-NN.jsonl), which `repro merge` also reads")
    detect.add_argument(
        "--resume", action="store_true",
        help="skip injection points already recorded in the journal "
             "(the shard count comes from its fragments)")
    detect.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock budget in seconds: an overrunning run's "
             "shard process is killed (runs on the shard engine)")
    detect.add_argument(
        "--retries", type=int, default=1,
        help="retries per timed-out point before marking it crashed")
    _add_state_backend_flag(detect)
    _add_trace_derive_flag(detect)
    detect.set_defaults(func=_cmd_detect)

    shard = sub.add_parser(
        "shard",
        help="run one deterministic shard of a campaign, writing a "
             "journal fragment for the coordinator merge",
    )
    shard.add_argument("app", help="application name (see `apps`)")
    shard.add_argument("--index", type=int, required=True,
                       help="this worker's shard index (0-based)")
    shard.add_argument("--count", type=int, required=True,
                       help="total number of shards in the campaign")
    shard.add_argument("--fragment", required=True,
                       help="journal fragment path this shard writes")
    shard.add_argument("--stride", type=int, default=1)
    shard.add_argument(
        "--resume", action="store_true",
        help="replay an existing fragment and run only unfinished points")
    _add_state_backend_flag(shard)
    _add_trace_derive_flag(shard)
    shard.set_defaults(func=_cmd_shard)

    merge = sub.add_parser(
        "merge",
        help="merge shard fragments into one campaign result "
             "(bit-identical to the sequential engine)",
    )
    merge.add_argument("fragments", nargs="+",
                       help="journal fragments, one per shard")
    merge.add_argument("--policy", help="JSON policy file")
    merge.add_argument("--save-log", help="write the merged run log (JSON)")
    merge.set_defaults(func=_cmd_merge)

    serve = sub.add_parser(
        "serve",
        help="campaign service: HTTP queue with bounded backpressure "
             "and a digest-keyed result cache",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--queue-size", type=int, default=8,
        help="max queued campaigns before submissions get 503")
    serve.add_argument(
        "--cache-capacity", type=int, default=128,
        help="campaign results kept in the LRU result cache")
    serve.add_argument(
        "--cache-path", default=None,
        help="persist the result cache to this JSONL journal so a "
             "restarted server answers repeats without re-running")
    serve.add_argument(
        "--policy", choices=["reject", "shed-oldest", "cost-aware"],
        default="reject",
        help="load-shedding policy when the queue is full: reject the "
             "newcomer (503), shed the oldest queued campaign, or admit "
             "by estimated cost")
    serve.add_argument(
        "--max-pending-cost", type=int, default=None,
        help="pending-work budget for --policy cost-aware (statically "
             "estimated injection points across queued campaigns)")
    serve.add_argument(
        "--max-body-bytes", type=int, default=1_048_576,
        help="largest request body accepted (413 beyond it)")
    serve.set_defaults(func=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault injection against the campaign "
             "infrastructure itself: kills, torn journal writes, IO "
             "errors and hangs must not change the merged result",
    )
    chaos.add_argument("app", help="application name (see `apps`)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seeds the fault plan and the retry jitter")
    chaos.add_argument("--shards", type=int, default=3,
                       help="shard count for the supervised campaign")
    chaos.add_argument("--stride", type=int, default=1)
    chaos.add_argument(
        "--timeout", type=float, default=0.25,
        help="per-run wall-clock budget (hung runs blow it and crash)")
    chaos.add_argument(
        "--retries", type=int, default=1,
        help="retries per timed-out point before marking it crashed")
    chaos.add_argument(
        "--hang-seconds", type=float, default=1.0,
        help="how long an injected hang stalls a run")
    chaos.add_argument(
        "--max-attempts", type=int, default=5,
        help="supervisor attempts per shard before giving up")
    chaos.add_argument(
        "--heartbeat-timeout", type=float, default=5.0,
        help="seconds without shard progress before the supervisor "
             "kills the shard process")
    chaos.add_argument(
        "--workdir", default=None,
        help="directory for shard fragments (default: temp dir)")
    chaos.add_argument(
        "--report-out", default=None,
        help="write the full chaos report (plan, fault log, verdict) "
             "as JSON — the reproducer artifact CI uploads on failure")
    _add_state_backend_flag(chaos)
    _add_trace_derive_flag(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    validate = sub.add_parser(
        "validate", help="detect, mask, and re-detect one application"
    )
    validate.add_argument("app")
    validate.add_argument("--stride", type=int, default=1)
    validate.add_argument("--policy", help="JSON policy file")
    validate.add_argument("--wrap-conditional", action="store_true")
    validate.add_argument(
        "--strategy", choices=tuple(STRATEGIES), default="snapshot",
        help="checkpoint strategy of the atomicity wrappers during the "
             "masked re-detection: eager deep copy (snapshot) or an undo "
             "log fed by a write barrier on every program class (undolog; "
             "only sound for attribute-reassignment state)")
    _add_state_backend_flag(validate)
    _add_trace_derive_flag(validate)
    validate.set_defaults(func=_cmd_validate)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random programs vs a ground-truth oracle",
    )
    fuzz.add_argument("--seed", type=int, default=7)
    fuzz.add_argument("--programs", type=int, default=100,
                      help="number of generated programs to check")
    fuzz.add_argument("--max-depth", type=int, default=3,
                      help="bound on the generated class-graph depth")
    fuzz.add_argument("--engine", choices=("sequential", "parallel", "both"),
                      default="both",
                      help="which detection engine(s) to cross-check "
                           "(parallel: the shard engine)")
    fuzz.add_argument("--workers", type=int, default=2,
                      help="shard processes for the parallel engine")
    fuzz.add_argument("--self-check", action="store_true",
                      help="plant known defects (classifier swap, merge "
                           "reorder, rollback removal) and assert the "
                           "fuzzer catches each one")
    fuzz.add_argument("--replay", metavar="FILE",
                      help="re-run the checks on a saved reproducer spec")
    fuzz.add_argument("--report-out", metavar="FILE",
                      help="write the deterministic report JSON here")
    fuzz.add_argument("--reproducer-out", metavar="FILE",
                      default="fuzz-reproducer.json",
                      help="where to write the shrunk failing spec")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="write the original failing spec without shrinking")
    fuzz.add_argument("--max-shrink-evals", type=int, default=200,
                      help="budget of harness evaluations while shrinking")
    _add_state_backend_flag(fuzz)
    fuzz.add_argument(
        "--trace-derive", action="store_true", default=False,
        help="additionally run each program's sequential campaign under "
             "the trace-derivation pass and assert the derived sweep's "
             "log and classification are bit-identical (modulo "
             "provenance) to the dynamic sweep's")
    fuzz.add_argument(
        "--variants", type=int, default=0, metavar="N",
        help="additionally check detection invariance across N "
             "semantic-preserving AST variants of every program "
             "(Check 7; recipes seeded by --seed; default: 0 = off)")
    fuzz.set_defaults(func=_cmd_fuzz)

    variants = sub.add_parser(
        "variants",
        help="generate semantic-preserving variants of a subject and "
             "optionally assert detection invariance across them",
    )
    variants.add_argument(
        "app", nargs="?", default=None,
        help="application name (see `apps`); omit with --fuzz-seed")
    variants.add_argument("--count", type=int, default=3,
                          help="number of variants to generate (default 3)")
    variants.add_argument("--seed", type=int, default=20260806,
                          help="recipe seed (deterministic corpus)")
    variants.add_argument(
        "--fuzz-seed", type=int, default=None,
        help="use a fuzz-generated spec as the subject instead of an "
             "application (generated with this seed)")
    variants.add_argument("--fuzz-index", type=int, default=0,
                          help="index of the fuzz spec within its seed")
    variants.add_argument(
        "--out", metavar="DIR",
        help="write each variant's transformed sources + transform "
             "manifest as JSON into this directory")
    variants.add_argument(
        "--check", action="store_true",
        help="run full campaigns on the original and every variant and "
             "assert identical outputs (exit 1 on divergence)")
    _add_state_backend_flag(variants)
    _add_trace_derive_flag(variants)
    variants.set_defaults(func=_cmd_variants)

    table = sub.add_parser("table1", help="regenerate Table 1")
    table.add_argument("--stride", type=int, default=1)
    table.set_defaults(func=_cmd_table1)

    figure = sub.add_parser("figure", help="regenerate Figure 2, 3, or 4")
    figure.add_argument("number", type=int, choices=(2, 3, 4))
    figure.add_argument("--stride", type=int, default=1)
    figure.set_defaults(func=_cmd_figure)

    fig5 = sub.add_parser("fig5", help="masking overhead grid (Figure 5)")
    fig5.add_argument("--calls", type=int, default=1000)
    fig5.add_argument("--repeats", type=int, default=5)
    fig5.set_defaults(func=_cmd_fig5)

    fixes = sub.add_parser(
        "fixes", help="the Section 6.1 LinkedList before/after comparison"
    )
    fixes.add_argument("--stride", type=int, default=1)
    fixes.set_defaults(func=_cmd_fixes)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate the entire evaluation into one report"
    )
    reproduce.add_argument("--out", help="markdown file to write")
    reproduce.add_argument("--stride", type=int, default=1)
    reproduce.add_argument("--scale", type=int, default=1)
    reproduce.add_argument("--calls", type=int, default=1000,
                           help="Figure 5 loop length")
    reproduce.set_defaults(func=_cmd_reproduce)

    report = sub.add_parser(
        "report", help="write an HTML campaign report (the web-interface view)"
    )
    report.add_argument("app")
    report.add_argument("output", help="path of the HTML file to write")
    report.add_argument("--stride", type=int, default=1)
    report.add_argument("--policy", help="JSON policy file")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

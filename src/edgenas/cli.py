"""Operator entry points: one binary, six subcommands.

    edgenas init-store                  create the schema
    edgenas run --samples 16 ...        one NAS search (Table-style row out)
    edgenas baseline                    push the expert default through the pipeline
    edgenas agent [--once]              the edge measurement daemon
    edgenas status                      each device's open work and latest report
    edgenas report summary|pareto|medians --run-ids ...

All numeric output uses fixed formats: scores and losses with 4 decimals,
latency with 2 decimals plus "ms".

Exit codes: 0 done; 1 the command failed (store, run ids, evaluations, an
output file could not be written, an embedded agent did not stop); 2 a bad
command line or configuration.
Only main prints "error: ...".
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import os
import sys
import threading

from . import coordinator, edge_agent
from .config import CliConfig, load_config
from .coordinator import ExternalTrainer, SimulatedTrainer
from .edge_agent import ExternalBackend, SimulatedBackend
from .optimizer import EvaluationFailed, pareto_front, top_decile_medians, write_history_csv
from .search_space import FIELDS, decode
from .store import Store, StoreError

logger = logging.getLogger(__name__)

SUMMARY_HEADER = ("samples", "val_score", "val_loss", "inference_time", "test_score", "test_loss")
AGENT_JOIN_TIMEOUT_S = 30.0


class CommandError(Exception):
    """A command that cannot complete; main prints its message and exits 1."""


def _fmt_score(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def _fmt_latency(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}ms"


def _print_summary_rows(rows: list[tuple]) -> None:
    table = [SUMMARY_HEADER] + [
        (
            str(samples),
            _fmt_score(val_score),
            _fmt_score(val_loss),
            _fmt_latency(time_ms),
            _fmt_score(test_score),
            _fmt_score(test_loss),
        )
        for samples, val_score, val_loss, time_ms, test_score, test_loss in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(SUMMARY_HEADER))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgenas", description="Hardware-aware NAS at desk scale.")
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--store", help="store path (overrides config file and EDGENAS_STORE)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init-store", help="create the store schema (idempotent)")

    # options of the commands that dispatch candidates (see _dispatch)
    dispatch = argparse.ArgumentParser(add_help=False)
    dispatch.add_argument("--device-type", help="edge device type to target")
    dispatch.add_argument(
        "--no-embedded-agent", action="store_true",
        help="do not start the in-process agent (run.trainer_command never starts it); an external agent measures",
    )

    run = sub.add_parser("run", parents=[dispatch], help="execute one NAS search")
    run.add_argument("--samples", type=int, help="total evaluation budget")
    run.add_argument("--population", type=int, help="number of parallel lineages")
    run.add_argument("--seed", type=int, help="run seed")
    run.add_argument("--run-id", help="explicit run id (default derived from seed/budget)")
    run.add_argument("--epochs", type=int, help="training epochs per candidate")
    run.add_argument("--history-csv", help="write the evaluation trace CSV here")

    sub.add_parser("baseline", parents=[dispatch], help="evaluate the expert default configuration")

    report = sub.add_parser("report", help="summaries, Pareto CSVs, median analysis")
    report.add_argument("kind", choices=["summary", "pareto", "medians"])
    report.add_argument("--run-ids", nargs="+", required=True)
    report.add_argument("--out", help="output directory for CSV reports")

    sub.add_parser("status", help="each device's open work and latest report")

    agent = sub.add_parser("agent", help="run the edge measurement agent")
    agent.add_argument("--device-type", help="override the configured device type")
    agent.add_argument("--once", action="store_true", help="measure the backlog one poll finds, then exit")
    return parser


def _cmd_init_store(args: argparse.Namespace, cfg: CliConfig) -> int:
    with Store.initialize(cfg.store_path) as store:
        print(f"store at {cfg.store_path} ready (schema version {store.schema_version})")
    return 0


def _make_trainer(cfg: CliConfig):
    if cfg.run.trainer_command:
        return ExternalTrainer(cfg.run.trainer_command)
    return SimulatedTrainer(cfg.surrogate, duration_s=cfg.run.trainer_duration_s)


def _make_backend(cfg: CliConfig):
    if cfg.agent.measurement_command:
        return ExternalBackend(cfg.agent.measurement_command, timeout_s=cfg.agent.measurement_timeout_s)
    return SimulatedBackend(cfg.device_profile, seed=cfg.agent.seed, call_duration_s=cfg.agent.call_duration_s)


def _dispatch(args: argparse.Namespace, cfg: CliConfig, job, **kwargs):
    """job(store=, trainer=, settings=, **kwargs) on the configured store, with the embedded agent unless detached."""
    settings = cfg.dispatch_settings()
    with Store(cfg.store_path) as store:
        # an external trainer means a real edge agent serves the device
        embed = not (cfg.run.trainer_command or args.no_embedded_agent)
        with edge_agent.embedded_agent(
            cfg.agent.config, store, _make_backend(cfg), AGENT_JOIN_TIMEOUT_S
        ) if embed else contextlib.nullcontext():
            return job(store=store, trainer=_make_trainer(cfg), settings=settings, **kwargs)


def _cmd_run(args: argparse.Namespace, cfg: CliConfig) -> int:
    run_config = cfg.run.run_config(
        population_size=args.population, total_evaluations=args.samples, seed=args.seed, epochs=args.epochs
    )
    history_csv = args.history_csv or cfg.report.history_csv
    if history_csv:  # refuse an unwritable path before the search posts anything; "a" truncates nothing
        existed = os.path.exists(history_csv)
        with open(history_csv, "a"):
            pass
        if not existed:  # only a finished search writes the file, so a refused one leaves none
            os.remove(history_csv)
    summary = _dispatch(args, cfg, coordinator.run_nas, run_config=run_config, run_id=args.run_id)
    if history_csv:
        write_history_csv(summary.history, summary.run_id, history_csv)
    best = summary.best_breakdown
    if best is None:
        print(f"run {summary.run_id}: no successful evaluations "
              f"(failures: {summary.failure_counts})", file=sys.stderr)
        return 1
    _print_summary_rows(
        [(run_config.total_evaluations, best.score, best.val_loss, best.inference_time_ms,
          best.test_score, best.test_loss)]
    )
    return 0


def _cmd_baseline(args: argparse.Namespace, cfg: CliConfig) -> int:
    try:
        b = _dispatch(args, cfg, coordinator.evaluate_baseline, run_config=cfg.run.run_config())
    except EvaluationFailed as exc:
        print(f"baseline evaluation failed: {exc}", file=sys.stderr)
        return 1
    _print_summary_rows([(0, b.score, b.val_loss, b.inference_time_ms, b.test_score, b.test_loss)])
    return 0


def _best_entries(store: Store, run_id: str):
    """(best validation row, its own test row or None) for one run.

    A candidate writes its test row right after its validation row, and a
    lineage that revisits a spec shares its architecture row in a later round.
    So the evaluation's test row is the architecture's next row, if that is one.
    """
    rows = [r for r, _ in store.query_results(run_id)]
    validation = [r for r in rows if r.split == "validation"]
    if not validation:
        return None, None
    best = min(validation, key=lambda r: (r.score, r.id))
    following = next((r for r in rows if r.architecture_id == best.architecture_id and r.id > best.id), None)
    return best, following if following is not None and following.split == "test" else None


def _require_runs(store: Store, run_ids: list[str]) -> None:
    known = store.list_run_ids()
    unknown = [r for r in run_ids if r not in known]
    if unknown:
        raise CommandError(
            f"unknown run id(s) {', '.join(unknown)}; known runs: {', '.join(known) or '(none)'}"
        )


def _report_summary(store: Store, run_ids: list[str]) -> int:
    by_budget: dict[int, list[tuple]] = {}
    for run_id in run_ids:
        metadata = store.get_run_metadata(run_id)
        budget = json.loads(metadata.config_document).get("total_evaluations", 0)
        best, best_test = _best_entries(store, run_id)
        if best is None:
            print(f"warning: run {run_id} has no results, skipped", file=sys.stderr)
            continue
        by_budget.setdefault(budget, []).append(
            (
                best.score,
                best.val_loss,
                best.inference_time_ms,
                best_test.score if best_test else None,
                best_test.val_loss if best_test else None,
            )
        )
    if not by_budget:
        raise CommandError("no results in the given runs")

    def mean_or_none(values):
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else None

    rows = [(budget, *map(mean_or_none, zip(*by_budget[budget]))) for budget in sorted(by_budget)]
    _print_summary_rows(rows)
    baseline_time = next((r[3] for r in rows if r[0] == 0), None)
    if baseline_time is not None:
        for budget, _, _, time_ms, _, _ in rows:
            if budget != 0 and time_ms:
                print(f"inference speedup vs baseline at {budget} samples: x{baseline_time / time_ms:.2f}")
    return 0


def _report_pareto(store: Store, run_ids: list[str], out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    for run_id in run_ids:
        rows = [r for r, _ in store.query_results(run_id) if r.split == "validation"]
        points = [(r.val_loss, r.inference_time_ms, r.id) for r in rows]
        front = set(pareto_front(points))
        path = os.path.join(out_dir, f"pareto_{run_id}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["val_loss", "inference_time_ms", "dominated"])
            for r in rows:
                writer.writerow([repr(r.val_loss), repr(r.inference_time_ms),
                                 "false" if r.id in front else "true"])
        print(path)
    return 0


def _report_medians(store: Store, run_ids: list[str]) -> int:
    entries = []
    for run_id in run_ids:
        for result, architecture in store.query_results(run_id):
            if result.split == "validation":
                entries.append((decode(architecture.spec_document), result.score))
    try:
        report = top_decile_medians(entries)
    except ValueError as exc:  # too few candidates
        raise CommandError(str(exc)) from exc
    print(f"top-decile medians over {len(entries)} candidates ({report.sample_count} selected):")
    for f in FIELDS:
        print(f"  {f.name:<15}{format(f.to_document(getattr(report, f.name)), f.report_format)}")
    return 0


def _cmd_report(args: argparse.Namespace, cfg: CliConfig) -> int:
    with Store(cfg.store_path) as store:
        _require_runs(store, args.run_ids)
        if args.kind == "summary":
            return _report_summary(store, args.run_ids)
        if args.kind == "pareto":
            return _report_pareto(store, args.run_ids, args.out or cfg.report.output_dir)
        return _report_medians(store, args.run_ids)


def _cmd_status(args: argparse.Namespace, cfg: CliConfig) -> int:
    """One line per device. No open work reads "idle": it says nothing of whether an agent serves the device."""
    with Store(cfg.store_path) as store:
        devices = store.backlog()
    if not devices:
        print("no device has open work or a report")
    for d in devices:
        oldest = "unknown" if d.oldest_open_s is None else f"{d.oldest_open_s:.1f} s"  # posted_at not a time
        work = f"{d.open_count} open, oldest {oldest}" if d.open_count else "idle"
        report = f"last report {d.last_measured_at}" if d.last_measured_at else "no report"
        print(f"{d.device_type}: {work}, {report}")
    return 0


def _cmd_agent(args: argparse.Namespace, cfg: CliConfig) -> int:
    backend = _make_backend(cfg)
    stop = threading.Event()
    with Store(cfg.store_path) as store:
        try:
            processed = edge_agent.run_agent_loop(cfg.agent.config, store, stop, backend, once=args.once)
        except KeyboardInterrupt:
            logger.info("agent interrupted; shutting down")
            return 0
    if args.once:
        print(f"processed {processed} architecture(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("EDGENAS_LOG", "WARNING"),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "init-store": _cmd_init_store,
        "run": _cmd_run,
        "baseline": _cmd_baseline,
        "report": _cmd_report,
        "status": _cmd_status,
        "agent": _cmd_agent,
    }
    try:
        cfg = load_config(args.config, args.store, getattr(args, "device_type", None))  # not every command has the flag
        return handlers[args.command](args, cfg)
    except ValueError as exc:  # the config file, a run configuration or the coordinator refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StoreError, CommandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

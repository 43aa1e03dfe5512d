"""Command-line interface: evaluate XPath against XML files or stores.

Examples::

    python -m repro '//book/title' catalog.xml
    python -m repro --engine naive 'count(//book)' catalog.xml
    python -m repro --explain '/a/b[position() = last()]'
    python -m repro --store catalog.natix '//book' catalog.xml
    python -m repro --explain-stats --repeat 10 '//book' catalog.xml
    python -m repro --repeat 64 --workers 4 '//book' catalog.xml
    python -m repro --codegen force --repeat 100 '//book' catalog.xml

Evaluation runs through an :class:`~repro.engine.session.XPathEngine`
session; ``--explain-stats`` prints its full JSON stats snapshot (plan
cache, per-phase compile timings, per-operator counters, buffer stats)
after the query result.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import List, Optional

from repro import (
    EvalOptions,
    TranslationOptions,
    XPathEngine,
    __version__,
    create_collection,
    engine_names,
    evaluate,
    open_collection,
    open_store,
    parse_document,
    store_document,
)
from repro.compiler.pipeline import OPTIMIZER_MODES, SWITCH_MODES
from repro.dom.node import Node, NodeKind
from repro.dom.serializer import serialize
from repro.errors import ReproError
from repro.xpath.datamodel import number_to_string

#: Engines the CLI runs through the session layer (plan cache + stats).
_SESSION_ENGINES = {
    "natix": TranslationOptions.improved,
    "natix-canonical": TranslationOptions.canonical,
}


def _render_node(node: Node) -> str:
    if node.kind == NodeKind.ATTRIBUTE:
        return f'{node.name}="{node.value}"'
    if node.kind in (NodeKind.TEXT, NodeKind.COMMENT):
        return node.value or ""
    if node.kind == NodeKind.ROOT:
        return "(document root)"
    return serialize(node)


def _render_result(value) -> List[str]:
    if isinstance(value, list):
        ordered = sorted(value, key=lambda n: n.sort_key)
        return [_render_node(node) for node in ordered]
    if isinstance(value, bool):
        return ["true" if value else "false"]
    if isinstance(value, float):
        return [number_to_string(value)]
    return [str(value)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Algebraic XPath 1.0 processor (ICDE 2005 reproduction)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument("query", help="XPath 1.0 expression")
    parser.add_argument(
        "document", nargs="?",
        help="XML file to query ('-' for stdin); omit with --explain",
    )
    parser.add_argument(
        "--engine", choices=engine_names(), default="natix",
        help="evaluation engine (default: natix)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the logical algebra plan instead of evaluating",
    )
    parser.add_argument(
        "--explain-cost", action="store_true",
        help="like --explain, but annotate every operator with the "
             "optimizer's cardinality and cost estimates (synopsis-fed "
             "when a --store document with indexes is given)",
    )
    parser.add_argument(
        "--optimize", action="store_true",
        help="enable the property-driven plan optimizer",
    )
    parser.add_argument(
        "--optimizer", choices=OPTIMIZER_MODES, default="heuristic",
        help="plan-choice mode: the paper's selectivity gates "
             "('heuristic') or the synopsis-fed cost model ('cost'); "
             "answers are identical (session engines only)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print runtime operator counters after evaluation",
    )
    parser.add_argument(
        "--explain-stats", action="store_true",
        help="print the engine session's JSON stats snapshot after "
             "evaluation (plan cache, compile phases, operators, buffer)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="evaluate the query N times (exercises the plan cache)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run the --repeat evaluations through a thread pool of N "
             "workers (session engines only)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="abort the evaluation with a QueryTimeoutError after this "
             "many seconds (algebraic engines only)",
    )
    parser.add_argument(
        "--max-tuples", type=int, default=None, metavar="N",
        help="abort with a QueryBudgetError once the iterator tree has "
             "produced N tuples (algebraic engines only)",
    )
    parser.add_argument(
        "--codegen", choices=SWITCH_MODES, default="off",
        help="compile plans to generated Python: 'auto' falls back to "
             "the interpreter on unsupported operators, 'force' fails "
             "instead (session engines only; default: off)",
    )
    parser.add_argument(
        "--store", metavar="PATH",
        help="store the parsed document as a page file, then query it",
    )
    parser.add_argument(
        "--collection", metavar="DIR",
        help="serve the query from a sharded collection directory: with "
             "a document argument, split it into --shards shards and "
             "write the collection there first; without one, open the "
             "existing collection (scatter-gather across --workers "
             "processes; session engines only)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="shard count when building a collection from a document "
             "with --collection (default: 4)",
    )
    parser.add_argument(
        "--pruning", action=argparse.BooleanOptionalAction, default=True,
        help="skip collection shards whose path synopsis proves the "
             "query empty there (default on; --no-pruning scatters to "
             "every shard — results are identical either way)",
    )
    parser.add_argument(
        "--indexes", action=argparse.BooleanOptionalAction, default=True,
        help="build structural indexes when storing with --store, and "
             "route eligible steps onto them (session engines; default "
             "on, --no-indexes disables both)",
    )
    arguments = parser.parse_args(argv)

    if arguments.workers < 1:
        parser.error("--workers must be at least 1")
    if arguments.workers > 1 and arguments.engine not in _SESSION_ENGINES:
        parser.error(
            f"--workers requires a session engine "
            f"({sorted(_SESSION_ENGINES)}); {arguments.engine!r} has no "
            "concurrent evaluation path"
        )
    governed = (
        arguments.timeout is not None or arguments.max_tuples is not None
    )
    if governed and arguments.engine not in _SESSION_ENGINES:
        parser.error(
            f"--timeout/--max-tuples require an algebraic engine "
            f"({sorted(_SESSION_ENGINES)}); {arguments.engine!r} has no "
            "governance checkpoints"
        )
    if (
        arguments.codegen != "off"
        and arguments.engine not in _SESSION_ENGINES
    ):
        parser.error(
            f"--codegen requires a session engine "
            f"({sorted(_SESSION_ENGINES)}); {arguments.engine!r} has no "
            "generated-code backend"
        )
    if (
        arguments.optimizer != "heuristic"
        and arguments.engine not in _SESSION_ENGINES
    ):
        parser.error(
            f"--optimizer requires a session engine "
            f"({sorted(_SESSION_ENGINES)}); {arguments.engine!r} has no "
            "plan optimizer"
        )
    if arguments.timeout is not None and arguments.timeout <= 0:
        parser.error("--timeout must be positive")
    if arguments.max_tuples is not None and arguments.max_tuples <= 0:
        parser.error("--max-tuples must be positive")
    if arguments.collection:
        if arguments.engine not in _SESSION_ENGINES:
            parser.error(
                f"--collection requires a session engine "
                f"({sorted(_SESSION_ENGINES)}); {arguments.engine!r} "
                "cannot scatter across processes"
            )
        if arguments.store:
            parser.error("--collection and --store are mutually exclusive")
        if arguments.codegen != "off":
            parser.error(
                "--codegen is not supported with --collection "
                "(workers interpret shipped plans)"
            )
        if arguments.shards < 1:
            parser.error("--shards must be at least 1")

    options = TranslationOptions(optimize=arguments.optimize)

    try:
        if arguments.explain or arguments.explain_cost:
            # An optional document (and --store) makes the plan compile
            # against a real target, so index routing and synopsis-fed
            # estimates show up in the output.
            engine = XPathEngine(
                options,
                index="auto" if arguments.indexes else "off",
                optimizer=arguments.optimizer,
            )
            with ExitStack() as stack:
                target = None
                if arguments.document:
                    document = parse_document(
                        _read_document(arguments.document)
                    )
                    target = document
                    if arguments.store:
                        store_document(
                            document, arguments.store,
                            indexes=arguments.indexes,
                        )
                        target = stack.enter_context(
                            open_store(arguments.store)
                        )
                compiled = engine.compile(arguments.query, target=target)
                print(
                    compiled.explain_cost() if arguments.explain_cost
                    else compiled.explain()
                )
                if compiled.optimizer_report:
                    for note in compiled.optimizer_report.notes:
                        print(f"; optimizer: {note}")
            return 0

        if arguments.collection:
            if arguments.document:
                document = parse_document(
                    _read_document(arguments.document)
                )
                create_collection(
                    document, arguments.collection,
                    shards=arguments.shards, indexes=arguments.indexes,
                )
            _run_collection(arguments)
            return 0

        if not arguments.document:
            parser.error(
                "a document is required unless --explain/--explain-cost "
                "is given"
            )
        document = parse_document(_read_document(arguments.document))

        if arguments.store:
            store_document(
                document, arguments.store, indexes=arguments.indexes
            )
            with open_store(arguments.store) as stored:
                _run_query(arguments, stored)
            return 0

        _run_query(arguments, document)
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _read_document(path: str) -> str:
    """The document text: a file path or '-' for stdin."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _run_collection(arguments) -> None:
    """Serve the query from a collection through the session layer."""
    name = arguments.engine
    session = XPathEngine(
        _SESSION_ENGINES[name](optimize=arguments.optimize),
        index="auto" if arguments.indexes else "off",
        optimizer=arguments.optimizer,
        default_timeout=arguments.timeout,
        default_max_tuples=arguments.max_tuples,
    )
    with open_collection(
        arguments.collection,
        workers=arguments.workers,
        index="auto" if arguments.indexes else "off",
        optimizer=arguments.optimizer,
        pruning=arguments.pruning,
    ) as collection:
        for _ in range(max(1, arguments.repeat)):
            result = session.evaluate_collection(
                arguments.query, collection
            )
        merged = result.merged()
        if result.kind == "node-set":
            for record in merged:
                label = record.name or "(text)"
                print(
                    f"[shard {record.shard}] {label}: "
                    f"{record.string_value}"
                )
        else:
            for shard, value in enumerate(merged):
                rendered = (
                    number_to_string(value)
                    if isinstance(value, float) and not isinstance(
                        value, bool
                    )
                    else value
                )
                print(f"[shard {shard}] {rendered}")
        if arguments.stats:
            stats = collection.stats()
            print(
                f"; collection: queries={stats.queries} "
                f"submitted={stats.submitted} "
                f"completed={stats.completed} "
                f"timed_out={stats.timed_out} "
                f"cancelled={stats.cancelled} failed={stats.failed} "
                f"pruned={stats.shards_pruned} "
                f"recycles={stats.recycles}",
                file=sys.stderr,
            )
        if arguments.explain_stats:
            print(session.stats().to_json(indent=2), file=sys.stderr)


def _run_query(arguments, target) -> None:
    """Evaluate (possibly repeatedly), print the result, then stats."""
    name = arguments.engine
    session: Optional[XPathEngine] = None
    if name in _SESSION_ENGINES:
        session = XPathEngine(
            _SESSION_ENGINES[name](optimize=arguments.optimize),
            index="auto" if arguments.indexes else "off",
            codegen=arguments.codegen,
            optimizer=arguments.optimizer,
            default_timeout=arguments.timeout,
            default_max_tuples=arguments.max_tuples,
        )
        if arguments.workers > 1:
            batch = [arguments.query] * max(1, arguments.repeat)
            results = session.evaluate_concurrent(
                batch, target, max_workers=arguments.workers
            )
            result = results[-1]
        else:
            for _ in range(max(1, arguments.repeat)):
                result = session.evaluate(arguments.query, target)
    else:
        eval_options = EvalOptions(engine=name)
        for _ in range(max(1, arguments.repeat)):
            result = evaluate(arguments.query, target, eval_options)

    for line in _render_result(result):
        print(line)

    if arguments.stats and session is not None:
        compiled = session.compile(arguments.query, target=target)
        print(f"; stats: {dict(compiled.stats)}", file=sys.stderr)
    buffer = getattr(target, "buffer", None)
    if arguments.stats and buffer is not None:
        print(f"; buffer: {buffer.stats}", file=sys.stderr)
    if arguments.explain_stats:
        if session is None:
            print(
                f"; --explain-stats requires a session engine "
                f"({sorted(_SESSION_ENGINES)}); {name!r} has no session "
                "instrumentation",
                file=sys.stderr,
            )
        else:
            print(session.stats().to_json(indent=2), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

"""The public convenience API.

One-shot use needs exactly three things::

    from repro import parse_document, compile_xpath, evaluate

    doc = parse_document("<a><b/><b/></a>")
    print(evaluate("count(/a/b)", doc))            # 2.0

    query = compile_xpath("/a/b[position() = last()]")
    nodes = query.evaluate(doc.root)

Serving many queries, create a session instead — an
:class:`~repro.engine.session.XPathEngine` caches compiled plans and
instruments every layer::

    from repro import XPathEngine

    engine = XPathEngine()
    engine.evaluate("count(/a/b)", doc)        # compiles and caches
    engine.evaluate("count(/a/b)", doc)        # plan-cache hit
    engine.evaluate_many(["/a/b", "//b"], doc) # batch, shared context
    engine.evaluate_concurrent(               # thread-pool batch
        ["/a/b", "//b", "count(//b)"], doc, max_workers=4
    )
    print(engine.stats().to_json(indent=2))

One engine may be shared across threads: the plan cache is
lock-striped, each thread executes its own instance of a cached plan,
and concurrent identical ``evaluate`` calls are coalesced into a single
execution (see ``docs/concurrency.md``).

``evaluate`` takes an engine name (``EvalOptions(engine=...)``) to
pick an evaluation strategy:
``"natix"`` (the algebraic engine with the improved translation, the
default), ``"natix-canonical"`` (section-3 translation only), ``"naive"``
and ``"memo"`` (the baseline interpreters).  Engines live in
:data:`ENGINE_REGISTRY`; third-party strategies plug in through
:func:`register_engine` without editing this module.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.baselines.memo import MemoInterpreter
from repro.baselines.naive import NaiveInterpreter
from repro.compiler.improved import TranslationOptions
from repro.compiler.pipeline import CompiledQuery, XPathCompiler
from repro.dom.document import Document
from repro.dom.node import Node
from repro.dom.parser import parse as _parse_xml
from repro.engine.governor import CancelToken, ResourceGovernor
from repro.engine.session import (
    EngineStats,
    EvalOptions,
    XPathEngine,
    _as_eval_options,
    resolve_context_node,
)
from repro.xpath.context import make_context
from repro.xpath.datamodel import XPathValue

#: A registered engine runner: evaluates one query against a context
#: node.  Signature: ``run(query, node, variables, namespaces, options)``.
EngineRunner = Callable[
    [
        str,
        Node,
        Optional[Mapping[str, XPathValue]],
        Optional[Mapping[str, str]],
        Optional[TranslationOptions],
    ],
    XPathValue,
]

#: A registered engine: a zero-argument factory producing a runner.
EngineFactory = Callable[[], EngineRunner]

#: Named engine factories.  Mutate through :func:`register_engine`.
ENGINE_REGISTRY: Dict[str, EngineFactory] = {}


def register_engine(
    name: str, factory: EngineFactory, *, replace: bool = False
) -> None:
    """Register an evaluation engine under ``name``.

    ``factory`` is a zero-argument callable returning a runner
    ``run(query, node, variables, namespaces, options) -> XPathValue``.
    Registering an existing name raises unless ``replace=True``.
    """
    if not replace and name in ENGINE_REGISTRY:
        raise ValueError(f"engine {name!r} is already registered")
    ENGINE_REGISTRY[name] = factory


def unregister_engine(name: str) -> None:
    """Remove a registered engine (missing names are ignored)."""
    ENGINE_REGISTRY.pop(name, None)


def engine_names() -> Tuple[str, ...]:
    """The currently registered engine names, sorted."""
    return tuple(sorted(ENGINE_REGISTRY))


def get_engine_factory(name: str) -> EngineFactory:
    """Look up a registered engine factory by name."""
    try:
        return ENGINE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {engine_names()}"
        ) from None


# ----------------------------------------------------------------------
# Built-in engines
# ----------------------------------------------------------------------


def _compiled_engine(default_options: Callable[[], TranslationOptions]):
    def factory() -> EngineRunner:
        def run(query, node, variables, namespaces, options):
            opts = options if options is not None else default_options()
            compiled = XPathCompiler(opts).compile(query)
            return compiled.evaluate(node, variables, namespaces)

        return run

    return factory


def _interpreter_engine(interpreter_class):
    def factory() -> EngineRunner:
        interpreter = interpreter_class()

        def run(query, node, variables, namespaces, options):
            # Interpreters have no translation phase; options are the
            # algebraic compiler's knobs and do not apply.
            return interpreter.evaluate(
                query, make_context(node, variables, namespaces)
            )

        return run

    return factory


register_engine("natix", _compiled_engine(TranslationOptions.improved))
register_engine(
    "natix-canonical", _compiled_engine(TranslationOptions.canonical)
)
register_engine("naive", _interpreter_engine(NaiveInterpreter))
register_engine("memo", _interpreter_engine(MemoInterpreter))

#: Engine names accepted by :func:`evaluate`.  Snapshot of the built-in
#: registry at import time; :func:`engine_names` is the live view.
ENGINES = tuple(ENGINE_REGISTRY)


# ----------------------------------------------------------------------
# Documents and stores
# ----------------------------------------------------------------------


def parse_document(text: str, **kwargs) -> Document:
    """Parse an XML string into a :class:`~repro.dom.document.Document`."""
    return _parse_xml(text, **kwargs)


def store_document(document: Document, path, **kwargs) -> None:
    """Persist a document to a Natix-style page file.

    Structural indexes (:mod:`repro.index`) are built and appended by
    default; pass ``indexes=False`` for a bare store.
    """
    from repro.storage import DocumentStore

    DocumentStore.write(document, path, **kwargs)


def build_indexes(path, *, buffer_pages: int = 256) -> None:
    """Build (or rebuild) the structural indexes of a stored document.

    Use this to retrofit indexes onto a store written with
    ``indexes=False`` (or by an older version); the data pages are not
    rewritten.  Re-open the store afterwards to pick the indexes up.
    """
    from repro.storage import DocumentStore

    DocumentStore.build_indexes(path, buffer_pages=buffer_pages)


def open_store(path, *, buffer_pages: int = 256):
    """Open a stored document; queries run directly on the page buffer.

    The returned :class:`~repro.storage.store.StoredDocument` is a valid
    :func:`evaluate` target, interchangeable with an in-memory
    :class:`Document`.
    """
    from repro.storage import DocumentStore

    return DocumentStore.open(path, buffer_pages=buffer_pages)


def create_collection(documents, directory, *, shards: Optional[int] = None,
                      name: Optional[str] = None, indexes: bool = True):
    """Write documents as a sharded collection directory.

    ``documents`` is either a sequence of :class:`Document` (one shard
    each, in global document order) or a single document to split into
    ``shards`` per-subtree shards (default 4).  Structural indexes are
    built per shard unless ``indexes=False``.  Returns the written
    :class:`~repro.collection.catalog.CollectionCatalog`.
    """
    from repro.collection import catalog as collection_catalog

    if isinstance(documents, Document):
        return collection_catalog.create_collection_from_document(
            documents, directory, shards=shards or 4,
            name=name, indexes=indexes,
        )
    if shards is not None:
        raise ValueError(
            "shards= only applies when splitting a single document; "
            "a sequence of documents is one shard each"
        )
    return collection_catalog.create_collection(
        directory, list(documents), name=name, indexes=indexes,
    )


def open_collection(directory, *, workers: Optional[int] = None,
                    index: str = "auto", optimizer: str = "heuristic",
                    options=None, pruning: bool = True):
    """Open a collection directory and start its worker pool.

    The returned :class:`~repro.collection.Collection` serves queries
    across every shard through a persistent ``multiprocessing`` pool —
    use it directly or pass it to
    :meth:`XPathEngine.evaluate_collection`.  It holds worker processes
    open: close it (or use it as a context manager) when done.
    ``index`` and ``optimizer`` mirror the :class:`XPathEngine` knobs
    and apply inside every worker.  ``pruning`` (default on) lets the
    scatter skip shards whose path synopsis proves the query empty
    there; results are identical either way.
    """
    from repro.collection import Collection

    return Collection(
        directory, workers=workers, index_mode=index,
        optimizer=optimizer, options=options, pruning=pruning,
    )


# ----------------------------------------------------------------------
# One-shot compile and evaluate
# ----------------------------------------------------------------------


def compile_xpath(
    query: str,
    *,
    options: Optional[TranslationOptions] = None,
    namespaces: Optional[Mapping[str, str]] = None,
) -> CompiledQuery:
    """Compile an XPath 1.0 expression with the algebraic compiler.

    ``namespaces`` become the compiled query's default prefix bindings
    (still overridable per ``evaluate`` call).
    """
    compiled = XPathCompiler(options).compile(query)
    if namespaces:
        compiled.default_namespaces = dict(namespaces)
    return compiled


def evaluate(
    query: str,
    target: Union[Document, Node],
    eval_options: Optional[EvalOptions] = None,
    *,
    options: Optional[TranslationOptions] = None,
) -> XPathValue:
    """One-shot evaluation of ``query`` against a document or node.

    Per-call configuration travels in one :class:`EvalOptions` value:
    variables, namespaces, the engine strategy (a
    :data:`ENGINE_REGISTRY` name), the governance limits and the
    ``index``/``codegen``/``optimizer`` modes.  ``options``
    (:class:`TranslationOptions`) stays a separate keyword — it
    parameterizes the algebraic *compiler*, not one evaluation.

    Governance limits (``timeout`` seconds, ``max_tuples``,
    ``max_bytes``, ``cancel``) abort with a typed governance error
    instead of returning a partial result (see ``docs/limits.md``).
    They — like ``index``, ``codegen`` and ``optimizer`` — run inside
    the algebraic engine, so they require ``engine`` ``"natix"`` or
    ``"natix-canonical"`` (the baseline interpreters have no
    cooperative checkpoints and no plans to route or compile); such a
    call runs through a throwaway :class:`XPathEngine`.
    """
    eval_options = _as_eval_options(eval_options)
    name = eval_options.engine or "natix"
    if (eval_options.governed() or eval_options.index is not None
            or eval_options.codegen is not None
            or eval_options.optimizer is not None):
        if name not in ("natix", "natix-canonical"):
            raise ValueError(
                "timeout/max_tuples/max_bytes/cancel/index/codegen/"
                "optimizer require an algebraic engine ('natix' or "
                f"'natix-canonical'), got {name!r}"
            )
        if options is None:
            options = (
                TranslationOptions.canonical()
                if name == "natix-canonical"
                else TranslationOptions.improved()
            )
        return _throwaway_engine(options, eval_options).evaluate(
            query, target, eval_options
        )
    runner = get_engine_factory(name)()
    return runner(
        query, resolve_context_node(target), eval_options.variables,
        eval_options.namespace_map(), options,
    )


def evaluate_concurrent(
    queries: Sequence[str],
    target: Union[Document, Node],
    eval_options: Optional[EvalOptions] = None,
    *,
    max_workers: Optional[int] = None,
    options: Optional[TranslationOptions] = None,
    return_exceptions: bool = False,
) -> List[XPathValue]:
    """One-shot concurrent evaluation of a query batch.

    Convenience wrapper that spins up a throwaway :class:`XPathEngine`
    and fans the batch out over its thread pool (see
    :meth:`XPathEngine.evaluate_concurrent`).  Serving workloads
    should hold on to an engine instead, so the plan cache survives
    between batches.  Governance limits in ``eval_options`` apply per
    query, with the deadline anchored at submission (queue wait
    counts).
    """
    eval_options = _as_eval_options(eval_options)
    return _throwaway_engine(options, eval_options).evaluate_concurrent(
        queries, target, eval_options, max_workers=max_workers,
        return_exceptions=return_exceptions,
    )


def _throwaway_engine(options: Optional[TranslationOptions],
                      eval_options: EvalOptions) -> XPathEngine:
    """A one-call engine configured with the call's mode overrides."""
    return XPathEngine(
        options,
        coalesce=False,
        index=eval_options.index or "auto",
        codegen=eval_options.codegen or "off",
        optimizer=eval_options.optimizer or "heuristic",
    )


__all__ = [
    "CancelToken",
    "ENGINES",
    "ENGINE_REGISTRY",
    "EngineStats",
    "EvalOptions",
    "ResourceGovernor",
    "XPathEngine",
    "build_indexes",
    "compile_xpath",
    "create_collection",
    "engine_names",
    "evaluate",
    "evaluate_concurrent",
    "get_engine_factory",
    "open_collection",
    "open_store",
    "parse_document",
    "register_engine",
    "resolve_context_node",
    "store_document",
    "unregister_engine",
]

"""Seeded inputs and their reference answers.

Every input is generated from the seed and handed to the program only as
serialized XML text.  Reference answers come once per run, outside any
timing, from the independent ``memo`` baseline interpreter evaluated on
the generated documents (not on the program's parse of the text).
"""

import random

from repro import EvalOptions, evaluate, serialize
from repro.testing.oracle import canonical_value
from repro.workloads import (
    FIG5_QUERIES,
    generate_axis_paths,
    generate_dblp,
    generate_document,
)
from repro.workloads.querygen import FIG10_QUERIES

#: Input sizes.  ``tiny`` is the harness self-test's size.
SIZES = {
    "full": {
        "hot_gen": (300, 6, 5), "hot_q2": (100, 6, 5), "hot_dblp": 400,
        "gen": (600, 6, 5), "dblp": 600,
        "cold": (40, 4, 3), "coll_gen": (300, 6, 5), "coll_dblp": 150,
    },
    "tiny": {
        "hot_gen": (200, 6, 5), "hot_q2": (40, 6, 5), "hot_dblp": 120,
        "gen": (200, 6, 5), "dblp": 120,
        "cold": (12, 3, 3), "coll_gen": (80, 6, 5), "coll_dblp": 60,
    },
}

#: Element names below the generated documents' root; the seed permutes
#: them.  Every query on generated documents uses wildcard steps, so the
#: names change the data but not the answers' shape.
_ELEMENT_NAMES = ("section", "item", "entry", "leaf", "part", "unit")

MEMO = EvalOptions(engine="memo")


class Input:
    """One document: generated tree, its XML text, references."""

    def __init__(self, name, document):
        self.name = name
        self.document = document
        self.text = serialize(document)
        self._references = {}

    def reference(self, query):
        """The memo baseline's canonical answer, computed once."""
        if query not in self._references:
            self._references[query] = canonical_value(
                evaluate(query, self.document, MEMO)
            )
        return self._references[query]


def generated(name, shape, rng):
    names = list(_ELEMENT_NAMES)
    rng.shuffle(names)
    elements, fanout, depth = shape
    return Input(name, generate_document(elements, fanout, depth, names))


def dblp(name, publications, rng):
    return Input(name, generate_dblp(publications, rng.randrange(1 << 30)))


def paper_hot(seed, size):
    """Fig. 5 Q1/Q3/Q4 on ``gen``, Q2 on ``q2``, Fig. 10 on ``dblp``."""
    sizes = SIZES[size]
    rng = random.Random(seed)
    inputs = {
        "gen": generated("gen", sizes["hot_gen"], rng),
        "q2": generated("q2", sizes["hot_q2"], rng),
        "dblp": dblp("dblp", sizes["hot_dblp"], rng),
    }
    requests = [(query, "gen") for index, query in enumerate(FIG5_QUERIES)
                if index != 1]
    requests.append((FIG5_QUERIES[1], "q2"))
    requests.extend((query, "dblp") for query in FIG10_QUERIES)
    requests = [(query, doc, route) for query, doc in requests
                for route in ("memory", "store")]
    rng.shuffle(requests)
    return inputs, requests


def oneshot_cold(seed, size):
    """All length-3 axis paths on one small document, in seeded order."""
    rng = random.Random(seed)
    inputs = {"cold": generated("cold", SIZES[size]["cold"], rng)}
    queries = list(generate_axis_paths(3))
    rng.shuffle(queries)
    return inputs, queries


#: Served-mix query classes: (class, target, query).  ``coll`` holds
#: three generated shards and one DBLP shard, so ``/dblp/...`` prunes to
#: one shard and ``/*/*...`` scatters to all four.
SERVED_QUERIES = (
    ("scalar", "gen", "count(/xdoc/descendant::*/ancestor::*/ancestor::*)"),
    ("scalar", "gen", "count(/xdoc/*/*/*[@id mod 7 = 3])"),
    ("scalar", "dblp", "count(/dblp/article[year = '1991'])"),
    ("scalar", "dblp", "count(/dblp/*/author)"),
    ("stream", "gen", FIG5_QUERIES[0]),
    ("stream", "dblp", "/dblp/article/title"),
    ("pruned", "coll", "/dblp/article/title"),
    ("pruned", "coll", "/dblp/inproceedings[year = '1991']/@key"),
    ("scatter", "coll", "/*/*[3]"),
    ("scatter", "coll", "/*/*[position() = last()]/@*"),
    ("positional", "gen", "/xdoc/*/*[3]"),
    ("positional", "gen", "/xdoc/*[2]/*[3]"),
    ("positional", "coll", "/xdoc/*/*[3]"),
)

SERVED_CLASSES = ("scalar", "stream", "pruned", "scatter", "positional")

#: The mix is this many rounds, each one seeded order of every query, so
#: that the two connections walking it from different offsets meet many
#: pairs of concurrent queries in one run, not the few one order gives.
SERVED_ROUNDS = 4

def served_mix(seed, size):
    sizes = SIZES[size]
    rng = random.Random(seed)
    inputs = {
        "gen": generated("gen", sizes["gen"], rng),
        "dblp": dblp("dblp", sizes["dblp"], rng),
    }
    shards = [generated(f"shard{index}", sizes["coll_gen"], rng)
              for index in range(3)]
    shards.append(dblp("shard3", sizes["coll_dblp"], rng))
    mix = []
    for _round in range(SERVED_ROUNDS):
        queries = list(SERVED_QUERIES)
        rng.shuffle(queries)
        mix.extend(queries)
    return inputs, shards, mix


def collection_reference(shards, query):
    """Memo's answers on each shard document, in shard order."""
    return tuple((index, shard.reference(query))
                 for index, shard in enumerate(shards))

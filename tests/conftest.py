"""Shared fixtures: the John Lennon / Yoko Ono example graphs and helpers."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from bnodematch import EquivalenceRelation, Graph, Renaming, load_graph, rename_graph
from bnodematch.generator import GenSpec, generate_pair
from bnodematch.matcher import _grounder, _incident_tokens, _refine, _wildcard

# Every run draws the same examples and replays no saved failures, so a
# tier-1 run passes or fails the same way each time.  Each test's own
# settings (``max_examples`` included) still apply on top of this profile.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

FIXTURES = Path(__file__).parent / "fixtures"

# ``pythonpath`` in pyproject.toml puts src on this process's path; tests
# that run ``python -m bnodematch`` in a subprocess find it through this.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

MUS = "http://www.example.com/music/v0/"
DB = "http://www.dbpedia.org/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@pytest.fixture(scope="session")
def g1() -> Graph:
    return load_graph(str(FIXTURES / "g1.nt"), "g1")


@pytest.fixture(scope="session")
def g2() -> Graph:
    return load_graph(str(FIXTURES / "g2.nt"), "g2")


@pytest.fixture(scope="session")
def g2_no_birthday() -> Graph:
    return load_graph(str(FIXTURES / "g2_no_birthday.nt"), "g2nb")


@pytest.fixture(scope="session")
def g3() -> Graph:
    return load_graph(str(FIXTURES / "g3.nt"), "g3")


@pytest.fixture(scope="session")
def g4() -> Graph:
    return load_graph(str(FIXTURES / "g4.nt"), "g4")


def random_relabeling(g: Graph, rng: random.Random, tag: str = "r") -> Renaming:
    """A fresh injective relabeling of all bnodes in ``g``."""
    labels = [f"{tag}{i}" for i in range(len(g.bnodes()))]
    rng.shuffle(labels)
    from bnodematch import bnode

    ordered = sorted(g.bnodes(), key=lambda t: t.sort_key())
    return Renaming({b: bnode(labels[i]) for i, b in enumerate(ordered)})


def relabeled_copy(g: Graph, seed: int = 0) -> Graph:
    rng = random.Random(seed)
    return rename_graph(g, random_relabeling(g, rng))


def signatures(g: Graph, equiv: EquivalenceRelation | None = None, rounds: int = 1):
    """Color-refinement colors of ``g``'s bnodes after ``rounds`` ``_refine`` steps."""
    ground = _grounder(equiv or EquivalenceRelation.exact())
    colors = None
    for _ in range(rounds):
        colors = _refine(g, ground, colors)
    return colors


def round_tokens(g: Graph, b, equiv: EquivalenceRelation | None = None,
                 rounds: int = 1) -> list[str]:
    """The sorted tokens whose digest is ``b``'s color in round ``rounds``."""
    ground = _grounder(equiv or EquivalenceRelation.exact())
    neighbor = _wildcard if rounds == 1 else signatures(g, equiv, rounds - 1).__getitem__
    return sorted(_incident_tokens(g, b, ground, neighbor))


def small_pair(seed: int, bnodes: int = 4, connectivity: float = 0.0, mutations: int = 2):
    """Convenience wrapper for generated pairs in tests."""
    spec = GenSpec(
        bnode_count=bnodes,
        ground_triples=3,
        connectivity=connectivity,
        mutation_ops=mutations,
        seed=seed,
    )
    return generate_pair(spec)

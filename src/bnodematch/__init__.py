"""Blank-node matching for RDF graphs.

Compute injective mappings between the blank nodes of two graphs and use
them for five tasks: equivalence testing, simple entailment, minimal
deltas for versioning, synchronization patches, and cross-source
integration under URI-equivalence policies.
"""

from .model import (
    Graph,
    Renaming,
    Term,
    Triple,
    bnode,
    bnode_components,
    has_connected_bnodes,
    incident_triples,
    iri,
    literal,
    rename_graph,
    rename_triple,
    rename_triples,
)
from .ntriples import (
    ParseError,
    ParseReport,
    load_graph,
    parse_ntriples,
    save_graph,
    serialize_ntriples,
)
from .equivalence import EquivalenceRelation, canonical_suffix, load_sameas_pairs
from .delta import (
    SOURCE_LABELS,
    TARGET_LABELS,
    DeltaScript,
    apply_delta,
    load_delta,
    mapped_delta,
    plain_delta,
    reverse_delta,
    save_delta,
)
from .matcher import (
    BnodeMapping,
    InstanceTooLarge,
    brute_force_match,
    mapping_cost,
    match_bnodes,
    pair_distance,
)
from .decision import (
    EntailmentMapping,
    SearchBudgetExceeded,
    entails,
    find_equivalence_bijection,
    graphs_equivalent,
    verify_entailment,
)
from .integration import IntegrationResult, integrate_all
from .store import StoreError, VersionStore
from .generator import GeneratedPair, GenSpec, generate_pair

__version__ = "0.1.0"

__all__ = [
    "BnodeMapping",
    "DeltaScript",
    "EntailmentMapping",
    "EquivalenceRelation",
    "GenSpec",
    "GeneratedPair",
    "Graph",
    "InstanceTooLarge",
    "IntegrationResult",
    "ParseError",
    "ParseReport",
    "Renaming",
    "SearchBudgetExceeded",
    "SOURCE_LABELS",
    "StoreError",
    "TARGET_LABELS",
    "Term",
    "Triple",
    "VersionStore",
    "apply_delta",
    "bnode",
    "bnode_components",
    "brute_force_match",
    "canonical_suffix",
    "entails",
    "find_equivalence_bijection",
    "generate_pair",
    "graphs_equivalent",
    "has_connected_bnodes",
    "incident_triples",
    "integrate_all",
    "iri",
    "literal",
    "load_delta",
    "load_graph",
    "load_sameas_pairs",
    "mapped_delta",
    "mapping_cost",
    "match_bnodes",
    "pair_distance",
    "parse_ntriples",
    "plain_delta",
    "rename_graph",
    "rename_triple",
    "rename_triples",
    "reverse_delta",
    "save_delta",
    "save_graph",
    "serialize_ntriples",
    "verify_entailment",
]

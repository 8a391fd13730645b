"""Finite simplicial sets: cells, EZ-normal faces, nerves, joins, products,
map enumeration, and the inner-horn filling check."""

from .ops import (
    compose,
    delta,
    epi_mono_factor,
    identity_op,
    is_monotone,
    is_surjection,
    op_reverse,
    sigma,
    surj_from_word,
    word_from_surj,
)
from .sset import Simplex, SMap, SSet
from .cat import FinCategory, Poset
from .nerves import (
    boundary,
    horn,
    nerve_category,
    nerve_poset,
    simplex_inclusion,
    simplex_map,
    standard_simplex,
)
from .build import empty_sset, from_levels, join, opposite_smap, opposite_sset, product, product_map
from .enumerate import enumerate_maps, extensions, find_isomorphism, is_quasicategory_upto
from . import io

__all__ = [
    "FinCategory",
    "Poset",
    "SMap",
    "SSet",
    "Simplex",
    "boundary",
    "compose",
    "delta",
    "empty_sset",
    "enumerate_maps",
    "epi_mono_factor",
    "extensions",
    "find_isomorphism",
    "from_levels",
    "horn",
    "identity_op",
    "io",
    "is_monotone",
    "is_quasicategory_upto",
    "is_surjection",
    "join",
    "nerve_category",
    "nerve_poset",
    "op_reverse",
    "opposite_smap",
    "opposite_sset",
    "product",
    "product_map",
    "sigma",
    "simplex_inclusion",
    "simplex_map",
    "standard_simplex",
    "surj_from_word",
    "word_from_surj",
]

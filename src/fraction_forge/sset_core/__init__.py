"""Finite simplicial sets: cells, EZ-normal faces, nerves, opposites,
map enumeration, and the inner-horn filling check."""

from .ops import (
    compose,
    delta,
    epi_mono_factor,
    identity_op,
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
    standard_simplex,
)
from .build import from_levels, opposite_sset
from .enumerate import enumerate_maps, is_quasicategory_upto
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
    "enumerate_maps",
    "epi_mono_factor",
    "from_levels",
    "horn",
    "identity_op",
    "io",
    "is_quasicategory_upto",
    "is_surjection",
    "nerve_category",
    "nerve_poset",
    "op_reverse",
    "opposite_sset",
    "sigma",
    "standard_simplex",
    "surj_from_word",
    "word_from_surj",
]

"""Discrete homotopy theory of reflexive graphs: stable cubes,
loop-group presentations, and lazily presented path/pullback graphs."""

from .cubes import (
    StableCube,
    open_box_filler_search,
    vertex_cube,
    walk_cube,
)
from .graphs import (
    Graph,
    GraphMap,
    cycle,
    graph_from_dict,
    graph_map,
    interval,
    make_graph,
)
from .groups import (
    GroupPresentation,
    a1_bfs_oracle,
    a1_presentation,
    abelianization_rank,
    free_reduce,
    is_trivial_presentation,
)
from .lazy import (
    LazyGraph,
    line_canon,
    line_ends,
    line_value,
    path_graph_lazy,
    pullback_graph_lazy,
    pullback_square_probe,
)

__all__ = [
    "Graph", "GraphMap", "GroupPresentation", "LazyGraph", "StableCube",
    "a1_bfs_oracle", "a1_presentation", "abelianization_rank", "cycle",
    "free_reduce", "graph_from_dict", "graph_map", "interval",
    "is_trivial_presentation", "line_canon", "line_ends", "line_value",
    "make_graph", "open_box_filler_search", "path_graph_lazy",
    "pullback_graph_lazy", "pullback_square_probe", "vertex_cube",
    "walk_cube",
]

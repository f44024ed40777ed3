"""Edge partitions of random graphs into pairwise non-isomorphic classes.

The package builds such partitions in three density regimes (embedded small
trees, linear forests packed into long paths, unions of small path
components), verifies pairwise non-isomorphism exactly, and evaluates the
matching counting bounds.  Everything randomised is seeded and reproducible.
"""

from .bounds import (
    claim_check,
    dense_tree_order,
    ell,
    f_dense,
    sparse_k,
    theta_exponents,
    theta_verysparse,
    toy_lagrange_opt,
    upper_F,
    upper_dense,
    verysparse_window,
)
from .catalog import (
    LinearForest,
    ahu_code,
    catalan,
    enumerate_rooted_binary,
    forest_code,
    partition_count,
    partitions,
)
from .coloring import (
    Coloring,
    build_dense_coloring,
    build_sparse_coloring,
    build_verysparse_coloring,
    canonical_form,
    read_coloring,
    tau_exact,
    tau_matching,
    verify_distinct,
    write_coloring,
)
from .embed import (
    LazyRandomGraph,
    diagnostics_check,
    greedy_embed,
    materialize,
)
from .graph import (
    Graph,
    census,
    components,
    gen_gnp,
    read_edgelist,
    write_edgelist,
)
from .pathpack import dfs_path_pack, pack_forests

__version__ = "0.1.0"

__all__ = [
    "Coloring",
    "Graph",
    "LazyRandomGraph",
    "LinearForest",
    "ahu_code",
    "build_dense_coloring",
    "build_sparse_coloring",
    "build_verysparse_coloring",
    "canonical_form",
    "catalan",
    "census",
    "claim_check",
    "components",
    "dense_tree_order",
    "dfs_path_pack",
    "diagnostics_check",
    "ell",
    "enumerate_rooted_binary",
    "f_dense",
    "forest_code",
    "gen_gnp",
    "greedy_embed",
    "materialize",
    "pack_forests",
    "partition_count",
    "partitions",
    "read_coloring",
    "read_edgelist",
    "sparse_k",
    "tau_exact",
    "tau_matching",
    "theta_exponents",
    "theta_verysparse",
    "toy_lagrange_opt",
    "upper_F",
    "upper_dense",
    "verify_distinct",
    "verysparse_window",
    "write_coloring",
    "write_edgelist",
]

(** Branch & bound skyline over a kd-tree index (BBS-style).

    Realises the paper's roadmap item on index methods for efficient
    'better-than' testing: per-node bounding boxes let one dominance test
    discard a whole subtree, and the best-first order makes every reported
    point final (progressive delivery). Runs on the float form
    ({!Dominance.floats}), like {!Dnc}. Best-first order is by coordinate
    sum, so points with NULL ([neg_infinity]) coordinates tie; the kernel
    is exact on NULL-free data. *)

type stats = {
  nodes_visited : int;
  points_tested : int;
  pruned_subtrees : int;
}

val maxima : float array array -> int array * stats
(** Indices of the skyline under {!Dominance.floats_dominate}, in input
    order. *)

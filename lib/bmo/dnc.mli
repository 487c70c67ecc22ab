(** Divide & conquer maxima ([KLP75]) for Pareto preferences over numeric
    chains.

    Runs on the float form ({!Dominance.floats}): median splits on the
    first coordinate, where the high half cannot be dominated by the low
    half, so only the low half's local maxima are filtered against the
    high half's. O(n log n) for fixed d on data without heavy
    first-coordinate ties; falls back to quadratic base cases otherwise.
    This is the divide & conquer family the paper's decomposition results
    are "preparing the ground" for. *)

val maxima : float array array -> int array
(** Indices of the maxima under {!Dominance.floats_dominate}, in input
    order. *)

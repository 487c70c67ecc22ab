(** Parallel BMO evaluation over a pool of domains.

    Two strategies, both exact for every strict partial order (the merge
    correctness argument is spelled out in DESIGN.md):

    - {!maxima_dnc} — divide-and-conquer: P contiguous chunks, the
      {!Bnl.window} pass per chunk in its own domain, pairwise merge of the
      chunk windows with cross-domination filtering.
    - {!maxima_sfs} — over presorted points, the {!Sfs.filter} pass split
      across domains: parallel local windows, followed by a parallel
      cross-chunk filter of each chunk's survivors against all earlier
      chunks' survivors.

    Both are generic over the point form ({!Dominance.points}).

    The pool is cached and reused across queries; its size follows the
    [domains] argument (default {!default_domains}, settable through the
    shell's [\set domains N]). *)

val default_domains : unit -> int
(** Engine-wide default degree of parallelism; initially
    [Domain.recommended_domain_count ()]. *)

val set_default_domains : int -> unit
(** Raises [Invalid_argument] when the argument is [< 1]. [1] means
    sequential execution in the calling domain (no spawn at all). *)

(** {1 Statistics} *)

type chunk_stat = {
  c_rows : int;  (** input rows of the chunk *)
  c_out : int;  (** surviving rows after the final per-chunk phase *)
  c_tests : int;  (** dominance tests performed inside the chunk *)
  c_domain : int;  (** pool domain ({!Pool.self}) that ran the chunk *)
}

type stats = {
  s_domains : int;
  s_chunks : chunk_stat array;
  s_local_ms : float;  (** wall time of the parallel local phase *)
  s_merge_ms : float;  (** wall time of the merge / cross-filter phase *)
  s_merge_tests : int;  (** dominance tests spent merging *)
}

val total_tests : stats -> int
val stats_attrs : stats -> (string * string) list

(** {1 Kernels} *)

val maxima_dnc :
  domains:int -> ('p -> 'p -> bool) -> int -> (int -> 'p) -> int array * stats
(** [maxima_dnc ~domains dom n point]: indices of the BMO set of the points
    [point 0 .. point (n-1)]; order is deterministic (chunk order, local
    window order within each chunk). *)

val maxima_sfs :
  domains:int -> ('p -> 'p -> bool) -> int -> (int -> 'p) -> int array * stats
(** Indices of the BMO set of points in SFS order
    ({!Dominance.points} with [~presort:true]), kept in that order, exactly
    like sequential {!Sfs.filter}. *)

(** Result sizes and filter strength (Definitions 18 and 19).

    [size(P, R)] counts the distinct A-values in the BMO result; "P1 is a
    stronger preference filter than P2" iff its result size is no larger.
    Proposition 13's inequalities — the AND/OR-like adaptive filter effect
    of & and ⊗ — are tested and benched on top of these. *)

open Pref_relation

val result_size : Schema.t -> Preferences.Pref.t -> Relation.t -> int
(** size(P, R) = card(π_A(σ[P](R))). *)

val result_size_on :
  Schema.t -> Preferences.Pref.t -> attrs:string list -> Relation.t -> int
(** size measured over an explicit attribute set — Proposition 13's
    comparisons between preferences with different attribute sets project
    both onto the union, as its proof does. *)

val stronger_filter :
  Schema.t -> Preferences.Pref.t -> Preferences.Pref.t -> Relation.t -> bool
(** [stronger_filter schema p1 p2 rel] iff size(P1, R) ≤ size(P2, R). *)

val comparisons_of :
  [ `Naive | `Bnl ] ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t * int
(** Run an algorithm through {!Planner.evaluate}; returns the result and
    the number of better-than tests it performed. *)

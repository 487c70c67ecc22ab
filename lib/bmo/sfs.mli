(** Sort-filter BMO evaluation (SFS-style).

    Points in SFS order ({!Dominance.points} with [~presort:true]: the
    projection of the term's chain, fewer NULL dimensions first, then
    larger coordinate sum) are never dominated by a later point, so one
    append-only filter pass suffices: each candidate is only checked
    against the window and window points are never evicted. That makes
    SFS faster than BNL on data with large skylines. The order is what
    makes it correct: on an unsorted input the pass keeps dominated
    points. *)

open Pref_relation

val filter :
  ?deadline:Engine.deadline ->
  ('p -> 'p -> bool) ->
  int ->
  (int -> 'p) ->
  int array * Bnl.run
(** [filter dom n point] keeps the indices of the {e presorted} points
    [point 0 .. point (n-1)] that no window point dominates, in input
    order. The deadline
    contract is {!Bnl.window}'s: on expiry the survivors so far are the
    BMO set of the scanned prefix and [timed_out] is set. *)

val progressive :
  Schema.t -> Preferences.Pref.t -> Tuple.t list -> Tuple.t Seq.t
(** Progressive skyline delivery ([TEO01]): maxima are emitted as soon as
    they are identified, in SFS order; consuming the whole sequence yields
    exactly the survivors of presort and {!filter}. The sequence is
    ephemeral (internal window state) — consume it once. *)

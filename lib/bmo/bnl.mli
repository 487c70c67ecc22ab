(** Block-nested-loops BMO evaluation ([BKS01], in-memory variant).

    One window pass, generic over the point form ({!Dominance.points}).
    The window holds mutually undominated points; a candidate dominated by
    a window point is discarded, window points the candidate dominates are
    evicted. Correct for every strict partial order: transitivity
    guarantees a point dominated by an evicted window point is also
    dominated by the evicting one. Survivors come in first-appearance
    order. The window is a flat array, so the pass allocates nothing per
    candidate and handles anti-chain windows of any size. *)

open Pref_relation

type run = {
  tests : int;  (** dominance tests performed *)
  peak : int;  (** largest window size reached *)
  timed_out : bool;  (** the deadline cut the scan short *)
}
(** What one pass reports; {!Sfs.filter} reports the same record. *)

val window :
  ?deadline:Engine.deadline ->
  ('p -> 'p -> bool) ->
  int ->
  (int -> 'p) ->
  int array * run
(** [window dom n point] is the indices of the BMO set of the points
    [point 0 .. point (n-1)] under [dom], in first-appearance order; each
    point is asked for once as the pass reaches it. With a [deadline] the monotonic clock is polled
    every {!deadline_stride} candidates; on expiry the pass stops with
    [timed_out] set and returns the window so far — the exact BMO set of
    the scanned prefix (unscanned points may have dominated it, which is
    what the flag reports). An already-expired deadline returns [[||]]
    without scanning. *)

val initial_window : int
(** Window capacity a pass starts with; it doubles when full. *)

val deadline_stride : int
(** Candidates scanned between clock polls; bounds deadline overshoot to
    [stride] window scans. *)

val maxima : Dominance.t -> Tuple.t list -> Tuple.t list
(** {!window} over the rows under a given test. *)

val query : Schema.t -> Preferences.Pref.t -> Relation.t -> Relation.t
(** σ[P](R) via {!window} over the form {!Dominance.points} picks. Plain
    evaluation: telemetry is fed by {!Planner.execute}. *)

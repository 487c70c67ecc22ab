(** Preference-term revision: classify a session's new term against its
    previous one and evaluate the revised query from the cheapest sound
    seed (Chomicki, {e Database Querying under Changing Preferences};
    composition Propositions 8–12).

    The classifier works on {!Preferences.Canon} canonical forms, so
    pure reorderings of the algebra never mask a refinement. The
    executor turns the class into an evaluation strategy:

    - [Prior_suffix] ([P' = P & S]): σ\[P'\](R) ⊆ σ\[P\](R), so the old
      BMO set alone is re-winnowed — exact by the same substitutability
      argument as the cache's prior-prefix tier (Prop. 10).
    - [Pareto_extend] ([P' = P ⊗ Q]): the new BMO set may grow outside
      the seed, but evaluating the base relation with the seed rows
      first gives the window algorithm a hot window of already-maximal
      tuples — exact for every algorithm, fast for the window family.
    - [Contraction] / [Disjoint]: no sound seed; a cold run (which the
      semantic cache tiers may still serve when the cache is on).

    {!Session.refine} drives this from the shell's [\refine], the wire
    REFINE verb and the router. *)

open Pref_relation
open Pref_sql

type kind =
  | Same  (** canonically equal terms *)
  | Prior_suffix  (** the old prioritisation spine is a strict prefix *)
  | Pareto_extend  (** the old Pareto operands are a strict subset *)
  | Contraction  (** the new term is a strict prefix/subset of the old *)
  | Disjoint  (** unrelated revision *)

val kind_to_string : kind -> string
(** [same], [prior-suffix], [pareto-extend], [contraction], [disjoint] —
    the spelling used by plan attributes, H210 findings and metrics. *)

val classify : old_p:Preferences.Pref.t -> new_p:Preferences.Pref.t -> kind

type outcome = {
  o_result : Exec.result;
  o_kind : kind;
  o_plan : string;
      (** the evaluation route: [refine:same], [refine:seed] (winnow of
          the seed only), [refine:hot] (seed-first base scan) or [cold] *)
  o_seed_rows : int;  (** size of the seed BMO set, 0 without one *)
}

val execute :
  ?registry:Translate.registry ->
  deadline:Pref_bmo.Engine.deadline ->
  Pref_bmo.Engine.config ->
  Exec.env ->
  table:string ->
  seed:Relation.t option ->
  old_q:Ast.query ->
  Ast.query ->
  outcome
(** Evaluate the revised query [new_q] against [env], seeding from
    [seed] = σ\[P\](table) of the previous statement [old_q] when the
    classification allows it; without a seed the route is [cold]. Exact
    for every class — the class only changes the cost. Raises whatever {!Exec.run_query_within} raises. *)

val explain :
  ?registry:Translate.registry ->
  deadline:Pref_bmo.Engine.deadline ->
  Pref_bmo.Engine.config ->
  Exec.env ->
  table:string ->
  seed:Relation.t option ->
  old_q:Ast.query ->
  query_text:string ->
  Ast.query ->
  Pref_bmo.Explain.Plan.t
(** The plan the revised query would run, with a [refine] operator on
    top recording the revision class, the chosen route and the
    {!Pref_bmo.Cost} prediction for the seed re-winnow. *)

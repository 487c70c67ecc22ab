(** A cost-based plan chooser for BMO queries — the optimizer the paper's
    roadmap asks for ("cost-based optimization to choose between direct
    implementations of the Pareto operator and divide & conquer
    algorithms", §7).

    By default every alternative that can evaluate the term — sequential
    BNL/SFS, [KLP75] divide & conquer, chunked parallel evaluation,
    decomposition — is priced by the calibrated {!Cost} model (output
    cardinality from {!Estimate}, bent by a correlation sampled in
    preference space) and the cheapest wins. A skyline of numeric
    LOWEST/HIGHEST chains ({!Dominance.float_chain}) is priced on the
    float point form for the window, filter and parallel passes whatever
    its directions; SFS and divide & conquer are offered only when all
    chains run in one direction ({!chain_dims}), as their plan records
    name one direction. Two structural rules short-circuit the comparison:
    tiny inputs (n ≤ 64) run naively, and a prioritization headed by a
    syntactic chain becomes a query cascade (Proposition 11) because its
    first pass subsumes any alternative's scan. When the result cache is
    enabled it is probed first; semantic reuse only short-circuits when
    the cache's own cost gate predicts the reconstruction beats a cold
    run.

    [~costmodel:false] falls back to the pre-cost-model threshold
    heuristics (anti-correlation picks divide & conquer, ≥ 8192 rows per
    domain picks a parallel plan, everything else BNL) — the
    [\set costmodel off] escape hatch.

    All plans compute σ[P](R) exactly; the test suite checks each against
    the naive evaluation. *)

open Pref_relation

type plan =
  | Plan_naive
  | Plan_bnl
  | Plan_sfs of { attrs : string list; maximize : bool }
  | Plan_dnc of { attrs : string list; maximize : bool }
  | Plan_par_dnc of { domains : int }
  | Plan_par_sfs of { attrs : string list; maximize : bool; domains : int }
  | Plan_cascade of Preferences.Pref.t * Preferences.Pref.t
  | Plan_decompose
  | Plan_identity
      (** σ[P](R) = R is provable (e.g. from {!Preferences.Constraints}):
          return the input unchanged. Never produced by {!choose} — the
      planner sees no integrity constraints — but chosen by the SQL
          executor when the winnow is redundant. *)
  | Plan_cache_hit
      (** Serve the stored BMO set from {!Cache.global} verbatim. *)
  | Plan_cache_semantic of string
      (** Derive the result from cached entries via the named reuse
          identity (see {!Cache.reuse}). *)

val plan_to_string : plan -> string

val plan_kind : plan -> string
(** Constructor name only ([naive], [bnl], [sfs], [dnc], [par_dnc],
    [par_sfs], [cascade], [decompose], [identity], [cache_hit],
    [cache_semantic]) — the label the [bmo.plan_chosen.*] metrics use. *)

val chain_dims : Preferences.Pref.t -> (string list * bool) option
(** [Some (attrs, maximize)] when the term is a Pareto accumulation of
    same-direction chains over disjoint attributes
    ({!Preferences.Pref.chain_dims}). *)

val sampled_correlation :
  Schema.t -> Preferences.Pref.dim list -> Tuple.t list -> float
(** Pearson correlation of the first two dimensions over a sample of at
    most 500 rows, each folded by its sign so that larger is better on
    both; 0 when not estimable. A same-direction pair keeps the raw
    columns' correlation, a mixed pair gets its negation. *)

val choose :
  ?cache:bool ->
  ?costmodel:bool ->
  ?domains:int ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  plan
(** [domains] caps the parallelism considered; defaults to
    {!Parallel.default_domains}. With [domains:1] no parallel plan is ever
    chosen. When the result cache is enabled it is probed first: an exact
    hit beats every evaluation plan, and a semantic match wins only when
    its reconstruction is predicted to. [costmodel] (default [true])
    selects between cost-based choice and the legacy threshold
    heuristics. *)

(** {1 Traced choice (EXPLAIN)} *)

type trace = {
  t_n : int;  (** input cardinality *)
  t_dims : int;  (** chain dimensions, or attribute count of the term *)
  t_domains : int;  (** parallelism considered *)
  t_par_threshold : int;  (** rows per domain before fan-out pays *)
  t_big : bool;  (** [t_n >= t_par_threshold * t_domains] with [t_domains > 1] *)
  t_chain : Preferences.Pref.dim list option;
      (** {!Dominance.float_chain} of the term: chains over numeric columns *)
  t_correlation : float option;
      (** sampled Pearson correlation, when the decision computed it *)
  t_probes : Cache.tier_probe list;  (** per-tier cache probe timings *)
  t_rejected : (string * string) list;
      (** alternatives not taken, each with the predicted-cost (or
          threshold) comparison that rejected it *)
  t_estimate : float option;
      (** {!Estimate.expected_skyline_size_fast} under independence *)
  t_costs : (string * float) list;
      (** predicted milliseconds for every alternative the cost model
          priced, cheapest first; empty under [~costmodel:false] and on
          the cache / tiny-input short-circuits *)
}

val choose_traced :
  ?cache:bool ->
  ?costmodel:bool ->
  ?probe:Cache.reuse option * Cache.tier_probe list ->
  ?domains:int ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  plan * trace
(** The same decision procedure as {!choose} (they share it; a test pins
    them to the same answer) with every input it consulted recorded.
    [probe] substitutes an already-measured cache probe so callers that
    probed themselves (EXPLAIN) do not probe twice; without it the cache
    is probed as in {!choose}. *)

(** {1 Execution} *)

val plan_of_algorithm : ?domains:int -> Engine.algorithm -> plan option
(** The plan an {!Engine.algorithm} knob forces ([Alg_parallel] at
    [domains], default {!Parallel.default_domains}); [None] for
    [Alg_auto], which {!choose} decides. *)

type outcome = {
  o_tests : int;  (** dominance tests; [-1] when the kernel does not count *)
  o_peak : int option;  (** window peak, for the window and filter passes *)
  o_timed_out : bool;  (** the deadline cut the window pass short *)
  o_compile_ms : float;  (** preparing the points (compile or project) *)
  o_eval_ms : float;  (** the kernel proper *)
  o_par : Parallel.stats option;  (** per-chunk statistics of parallel plans *)
}

val kernel :
  ?deadline:Engine.deadline ->
  Schema.t ->
  Preferences.Pref.t ->
  plan ->
  Relation.t ->
  Relation.t * outcome
(** The one map from plan to kernel, without telemetry: [kernel schema p
    plan] compiles once and runs on any relation over [schema] (the
    grouped evaluation runs it per group). *)

val evaluate :
  ?deadline:Engine.deadline ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  plan ->
  Relation.t * outcome
(** {!kernel}, reported. Points take the form {!Dominance.points} picks;
    a [deadline] is polled by the window pass of [Plan_bnl] only (on
    expiry the result is the BMO set of the scanned prefix and
    [o_timed_out] is set). Every run feeds the engine
    telemetry here and nowhere else: {!Obs.record_query} (algorithm
    [<kind>] or [<kind>:degraded]), the window-peak gauge, the parallel
    metrics and the span attributes; while {!Cost.set_learning} is on,
    the measured runtime and the observed Prop. 13 filter effect are
    folded back into the cost model. *)

val outcome_phases : outcome -> Pref_obs.Profile.phase list
(** The [local] and [merge] phases of a parallel run; empty otherwise. *)

val outcome_attrs : outcome -> (string * string) list
(** [window_peak] and the parallel statistics, as profile/span
    attributes. *)

val execute :
  Schema.t -> Preferences.Pref.t -> Relation.t -> plan -> Relation.t
(** {!evaluate} without a deadline, result only. *)

val run :
  ?cache:bool ->
  ?costmodel:bool ->
  ?domains:int ->
  Schema.t -> Preferences.Pref.t -> Relation.t -> Relation.t * plan
(** Choose and execute; returns the chosen plan for EXPLAIN output. Cold
    results are stored into {!Cache.global} when it is enabled and [cache]
    (default [true]) is not overridden to [false]. *)

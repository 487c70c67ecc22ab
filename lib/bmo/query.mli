(** Front door for BMO preference queries σ[P](R) (Definition 15).

    One evaluation serves every entry point: consult the result cache,
    then run the plan that the deadline, the [algorithm] knob or the
    {!Planner} picks through {!Planner.evaluate} — the one map from plan
    to kernel, and the one place kernel runs feed telemetry. The
    [sigma_*] and [sigma_profiled_*] variants differ only in whether that
    evaluation also builds a {!Pref_obs.Profile}. All algorithms produce
    the same tuple set (the test suite checks this); they differ in cost
    and in row order / duplicate handling ([Alg_decompose] removes
    duplicate rows).

    The [_cfg] entry points take the unified {!Engine.config} record and
    are the primary API: they return the result together with
    {!Engine.flags} (and {!run_cfg} the full {!Engine.result}); the
    [_within] variants additionally accept an already-started deadline so
    several sub-queries can draw down one budget. The plain [sigma] /
    [sigma_profiled] / [sigma_groupby] functions are deprecated one-line
    shims over these via {!Compat.legacy_cfg} — same signatures and
    behaviour as before the engine API existed, kept so old call sites
    compile. *)

open Pref_relation

type algorithm = Engine.algorithm =
  | Alg_naive  (** exhaustive better-than tests, O(n²) *)
  | Alg_bnl  (** block-nested-loops window algorithm *)
  | Alg_decompose  (** divide & conquer via Propositions 8–12 *)
  | Alg_parallel  (** chunked multi-domain evaluation ({!Parallel}) *)
  | Alg_auto  (** cost-based choice by {!Planner} *)

val algorithm_of_string : string -> algorithm option
val algorithm_to_string : algorithm -> string

(** {1 Engine entry points} *)

val sigma_within :
  deadline:Engine.deadline ->
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t * Engine.flags
(** σ[P](R) under a configuration and a running deadline. The cache is
    consulted first (when [cfg.cache] and the global cache is enabled);
    on a miss, a query with a live deadline evaluates on the
    interruptible window pass ({!Bnl.window}) regardless of
    [cfg.algorithm] — the domain fan-out cannot be cancelled — and
    degrades to the current window with [partial] set when the budget
    expires. Partial results are never stored in the cache.
    [cfg.max_rows] caps the returned rows and sets [truncated]. *)

val sigma_cfg :
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t * Engine.flags
(** {!sigma_within} with the deadline started now from
    [cfg.deadline_ms]. *)

val sigma_profiled_within :
  deadline:Engine.deadline ->
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t * Engine.flags * Pref_obs.Profile.t
(** {!sigma_within} plus a query profile: input/output cardinality, the
    algorithm actually run (including the planner's choice under
    [Alg_auto], [cache:*] for cache hits, [bnl:degraded] for
    deadline-expired queries), dominance-test counts where the kernel
    reports them, and per-phase timings ([compile], [plan] under
    [Alg_auto], [local]/[merge] for parallel plans, [evaluate]). The
    profile is built unconditionally — {!Pref_obs.Control} only decides
    whether the run also feeds the engine-wide metrics and spans. *)

val sigma_profiled_cfg :
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t * Engine.flags * Pref_obs.Profile.t

val run_within :
  deadline:Engine.deadline ->
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Engine.Result.t
(** The structured-result front door: {!sigma_within} (or
    {!sigma_profiled_within} when [cfg.profile]) packaged as an
    {!Engine.Result.t} — rows, flags, the profile when one was built,
    and the executed plan identifier. *)

val run_cfg :
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Engine.Result.t
(** {!run_within} with the deadline started now from
    [cfg.deadline_ms]. *)

val sigma_groupby_within :
  deadline:Engine.deadline ->
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  by:string list ->
  Relation.t ->
  Relation.t * Engine.flags
(** σ[P groupby A](R) (Definition 16) under a configuration: every group
    runs as a sub-query through {!sigma_within}, so groups share the
    result cache, the domain setting and one deadline budget; flags are
    the union over groups and [cfg.max_rows] caps the combined result.
    With cache off, no deadline and default domains this takes the
    pre-engine evaluation path: the window pass per group under
    [Alg_bnl], the naive pass otherwise, no cache probes. *)

val sigma_groupby_cfg :
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  by:string list ->
  Relation.t ->
  Relation.t * Engine.flags

(** {1 Compatibility wrappers}

    Deprecated: thin shims over the [_cfg] API via {!Compat.legacy_cfg}.
    Prefer passing an {!Engine.config}. *)

val sigma :
  ?algorithm:algorithm ->
  ?cache:bool ->
  ?domains:int ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t
(** σ[P](R): all best-matching tuples, and only those. Default: BNL.
    [domains] sets the degree of parallelism for [Alg_parallel] and caps
    what [Alg_auto] may plan (default {!Parallel.default_domains}).
    When {!Cache.global} is enabled the query first consults the result
    cache (exact and semantic tiers) and stores cold results; [cache:false]
    opts this one call out. With the cache disabled the flag is dead and
    the evaluation path is byte-for-byte the old one. *)

val sigma_profiled :
  ?algorithm:algorithm ->
  ?cache:bool ->
  ?domains:int ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t * Pref_obs.Profile.t
(** [sigma] plus a query profile — {!sigma_profiled_cfg} without a
    deadline or row cap, flags dropped. A query served by the result
    cache reports algorithm [cache:exact] or [cache:semantic:<identity>]
    with a single [cache_lookup] phase. *)

val sigma_groupby :
  ?algorithm:algorithm ->
  Schema.t ->
  Preferences.Pref.t ->
  by:string list ->
  Relation.t ->
  Relation.t
(** σ[P groupby A](R) (Definition 16). *)

val sigma_levels :
  Schema.t ->
  Preferences.Pref.t ->
  levels:int ->
  Relation.t ->
  Relation.t
(** The tuples within the top [levels] levels of the database better-than
    graph: [sigma_levels ~levels:1] is σ[P](R); larger bounds relax the
    query level by level — the engine-side counterpart of
    [BUT ONLY LEVEL <= k]. Raises on [levels < 1]. *)

val perfect_matches :
  Schema.t ->
  Preferences.Pref.t ->
  ideal:(Tuple.t -> bool) ->
  Relation.t ->
  Relation.t
(** The perfect matches (Definition 14b) within the BMO result: tuples that
    are maximal in the realm of wishes itself. [ideal] decides membership in
    max(P) over the full domain — e.g. "intrinsic level = 1" or "distance =
    0". *)

open Pref_relation

type algorithm = Engine.algorithm =
  | Alg_naive
  | Alg_bnl
  | Alg_decompose
  | Alg_parallel
  | Alg_auto

let algorithm_of_string = Engine.algorithm_of_string
let algorithm_to_string = Engine.algorithm_to_string

(* [max_rows] caps the final result; the flag records that rows were
   dropped so callers can surface it (the wire protocol's [truncated]). *)
let cap_rows max_rows rel =
  match max_rows with
  | None -> (rel, false)
  | Some k ->
    let rows = Relation.rows rel in
    if List.length rows <= k then (rel, false)
    else
      ( Relation.make (Relation.schema rel)
          (List.filteri (fun i _ -> i < k) rows),
        true )

(* The one σ[P] evaluation: cache first, then the plan the deadline, the
   algorithm knob or the planner picks, run by {!Planner.evaluate}. The
   profile is built only when a caller forces it. *)
let evaluate ~deadline (cfg : Engine.config) schema p rel =
  Pref_obs.Span.with_span "bmo.sigma" @@ fun () ->
  let use_cache = cfg.cache && Cache.is_enabled () in
  let cached =
    if not use_cache then None
    else
      let r, ms =
        Pref_obs.Span.timed (fun () ->
            Cache.lookup ~gate:cfg.costmodel Cache.global schema p rel)
      in
      Option.map (fun x -> (x, ms)) r
  in
  let result, partial, alg_name, phases, attrs, comparisons =
    match cached with
    | Some ((result, reuse), lookup_ms) ->
      let alg_name, attrs =
        match reuse with
        | Cache.Exact -> ("cache:exact", [ ("cache", "exact") ])
        | Cache.Semantic desc ->
          ("cache:semantic:" ^ desc, [ ("cache", "semantic:" ^ desc) ])
      in
      ( result,
        false,
        alg_name,
        [ Pref_obs.Profile.phase "cache_lookup" lookup_ms ],
        attrs,
        -1 )
    | None ->
      (* Degradation ladder: a budgeted query runs on the interruptible
         sequential window pass regardless of [cfg.algorithm] — the domain
         fan-out cannot be cancelled mid-batch, the window scan can stop
         at any candidate. *)
      let forced =
        if Engine.has_deadline deadline then Some Planner.Plan_bnl
        else Planner.plan_of_algorithm ?domains:cfg.domains cfg.algorithm
      in
      let plan, plan_phases, plan_attrs =
        match forced with
        | Some plan -> (plan, [], [])
        | None ->
          (* the lookup above already missed every cache tier *)
          let plan, ms =
            Pref_obs.Span.timed (fun () ->
                Planner.choose ~cache:false ~costmodel:cfg.costmodel
                  ?domains:cfg.domains schema p rel)
          in
          Obs.plan_chosen (Planner.plan_kind plan);
          ( plan,
            [ Pref_obs.Profile.phase "plan" ms ],
            [ ("plan", Planner.plan_to_string plan) ] )
      in
      let result, o = Planner.evaluate ~deadline schema p rel plan in
      (* partial results are never cached *)
      if use_cache && not o.o_timed_out then
        Cache.store Cache.global schema p rel result;
      let kind = Planner.plan_kind plan in
      ( result,
        o.o_timed_out,
        (if forced = None then "auto:" ^ kind
         else if o.o_timed_out then kind ^ ":degraded"
         else kind),
        (Pref_obs.Profile.phase "compile" o.o_compile_ms :: plan_phases)
        @ Planner.outcome_phases o
        @ [ Pref_obs.Profile.phase "evaluate" o.o_eval_ms ],
        plan_attrs @ Planner.outcome_attrs o,
        o.o_tests )
  in
  let result, truncated = cap_rows cfg.max_rows result in
  let flags = { Engine.partial; truncated } in
  let profile () =
    Pref_obs.Profile.make ~phases
      ~attrs:(attrs @ Engine.flags_attrs flags)
      ~comparisons ~algorithm:alg_name ~input_rows:(Relation.cardinality rel)
      ~output_rows:(Relation.cardinality result) ()
  in
  (result, flags, profile)

let sigma_within ~deadline cfg schema p rel =
  let result, flags, _ = evaluate ~deadline cfg schema p rel in
  (result, flags)

let sigma_cfg cfg schema p rel =
  sigma_within ~deadline:(Engine.deadline_of cfg) cfg schema p rel

let sigma ?algorithm ?cache ?domains schema p rel =
  fst (sigma_cfg (Compat.legacy_cfg ?algorithm ?cache ?domains ()) schema p rel)

let sigma_profiled_within ~deadline cfg schema p rel =
  let result, flags, profile = evaluate ~deadline cfg schema p rel in
  (result, flags, profile ())

let sigma_profiled_cfg cfg schema p rel =
  sigma_profiled_within ~deadline:(Engine.deadline_of cfg) cfg schema p rel

let run_within ~deadline (cfg : Engine.config) schema p rel =
  let rows, flags, profile = evaluate ~deadline cfg schema p rel in
  if cfg.Engine.profile then
    let profile = profile () in
    Engine.Result.make ~profile ~plan:profile.Pref_obs.Profile.algorithm rows
      flags
  else
    Engine.Result.make
      ~plan:(Engine.algorithm_to_string cfg.algorithm)
      rows flags

let run_cfg cfg schema p rel =
  run_within ~deadline:(Engine.deadline_of cfg) cfg schema p rel

let sigma_profiled ?algorithm ?cache ?domains schema p rel =
  let result, _flags, profile =
    sigma_profiled_cfg (Compat.legacy_cfg ?algorithm ?cache ?domains ()) schema
      p rel
  in
  (result, profile)

let sigma_groupby_within ~deadline (cfg : Engine.config) schema p ~by rel =
  let use_cache = cfg.Engine.cache && Cache.is_enabled () in
  let legacy =
    (not use_cache)
    && (not (Engine.has_deadline deadline))
    && cfg.domains = None
  in
  let result, flags =
    if legacy then
      (* the pre-engine evaluation: one compile, then the window pass (or,
         for every other algorithm, the naive pass — groups are typically
         far below the parallel threshold) per group, no cache probes *)
      let run =
        Planner.kernel schema p
          (if cfg.algorithm = Alg_bnl then Planner.Plan_bnl
           else Planner.Plan_naive)
      in
      let rows =
        List.concat_map
          (fun g -> Relation.rows (fst (run g)))
          (Relation.group_by rel by)
      in
      (Relation.make (Relation.schema rel) rows, Engine.complete)
    else begin
      (* engine path: each group is a sub-query through {!sigma_within},
         so groups share the cache, the domain setting and one deadline
         budget; the row cap applies to the combined result only *)
      let group_cfg = { cfg with Engine.max_rows = None } in
      let rows, flags =
        List.fold_left
          (fun (acc, flags) g ->
            let r, f = sigma_within ~deadline group_cfg schema p g in
            (List.rev_append (Relation.rows r) acc, Engine.union_flags flags f))
          ([], Engine.complete)
          (Relation.group_by rel by)
      in
      (Relation.make (Relation.schema rel) (List.rev rows), flags)
    end
  in
  let result, truncated = cap_rows cfg.max_rows result in
  (result, Engine.union_flags flags { Engine.partial = false; truncated })

let sigma_groupby_cfg cfg schema p ~by rel =
  sigma_groupby_within ~deadline:(Engine.deadline_of cfg) cfg schema p ~by rel

let sigma_groupby ?algorithm schema p ~by rel =
  fst
    (sigma_groupby_cfg (Compat.legacy_cfg ?algorithm ~cache:false ()) schema p
       ~by rel)

let sigma_levels schema p ~levels rel =
  (* iterated BMO: level 1 is sigma[P](R); level i+1 is sigma[P] of what is
     left after removing the better levels — exactly the level function of
     the database better-than graph (Definition 2), evaluated lazily *)
  if levels < 1 then invalid_arg "Query.sigma_levels: levels must be >= 1";
  Pref_obs.Span.with_span "bmo.sigma_levels"
    ~attrs:[ ("levels", string_of_int levels) ]
  @@ fun () ->
  let dom = Dominance.of_pref schema p in
  let rec go k remaining acc =
    if k = 0 || remaining = [] then List.concat (List.rev acc)
    else begin
      let best = Naive.maxima dom remaining in
      Pref_obs.Metrics.incr Obs.levels_computed;
      let rest = List.filter (fun t -> not (List.memq t best)) remaining in
      go (k - 1) rest (best :: acc)
    end
  in
  Relation.make (Relation.schema rel) (go levels (Relation.rows rel) [])

let perfect_matches schema p ~ideal rel =
  (* A perfect match (Definition 14b) is a tuple whose projection is maximal
     in the whole domain of wishes, not merely in R.  Deciding membership in
     max(P) needs the domain; [ideal] supplies a predicate for it (e.g. level
     1 under the intrinsic level function). *)
  Relation.select (fun t -> ideal t) (sigma schema p rel)

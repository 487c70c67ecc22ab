open Pref_relation
open Preferences

type plan =
  | Plan_naive
  | Plan_bnl
  | Plan_sfs of { attrs : string list; maximize : bool }
  | Plan_dnc of { attrs : string list; maximize : bool }
  | Plan_par_dnc of { domains : int }
  | Plan_par_sfs of { attrs : string list; maximize : bool; domains : int }
  | Plan_cascade of Pref.t * Pref.t  (** Proposition 11: chain & rest *)
  | Plan_decompose
  | Plan_identity
      (** the winnow is provably redundant: sigma[P](R) = R holds under the
          relation's constraints, so the plan is "return the input" *)
  | Plan_cache_hit
  | Plan_cache_semantic of string

let plan_kind = function
  | Plan_naive -> "naive"
  | Plan_bnl -> "bnl"
  | Plan_sfs _ -> "sfs"
  | Plan_dnc _ -> "dnc"
  | Plan_par_dnc _ -> "par_dnc"
  | Plan_par_sfs _ -> "par_sfs"
  | Plan_cascade _ -> "cascade"
  | Plan_decompose -> "decompose"
  | Plan_identity -> "identity"
  | Plan_cache_hit -> "cache_hit"
  | Plan_cache_semantic _ -> "cache_semantic"

let plan_to_string = function
  | Plan_naive -> "naive"
  | Plan_bnl -> "bnl"
  | Plan_sfs { attrs; maximize } ->
    Printf.sprintf "sfs(%s %s)" (String.concat "," attrs)
      (if maximize then "max" else "min")
  | Plan_dnc { attrs; maximize } ->
    Printf.sprintf "dnc(%s %s)" (String.concat "," attrs)
      (if maximize then "max" else "min")
  | Plan_par_dnc { domains } -> Printf.sprintf "par_dnc(domains=%d)" domains
  | Plan_par_sfs { attrs; maximize; domains } ->
    Printf.sprintf "par_sfs(%s %s domains=%d)" (String.concat "," attrs)
      (if maximize then "max" else "min")
      domains
  | Plan_cascade (p1, p2) ->
    Printf.sprintf "cascade(%s; %s)" (Show.to_string p1) (Show.to_string p2)
  | Plan_decompose -> "decompose"
  | Plan_identity -> "identity (sigma[P](R) = R)"
  | Plan_cache_hit -> "cache(exact)"
  | Plan_cache_semantic desc -> Printf.sprintf "cache(semantic:%s)" desc

(* ------------------------------------------------------------------ *)
(* Structural analysis                                                 *)

(* Is the term a Pareto accumulation of pure numeric chains, all in the
   same direction?  Derived from {!Pref.skyline_dims}, which gives every
   chain its own direction; re-exported here because the SFS and [KLP75]
   divide & conquer plans are offered only for such chains, over numeric
   columns. *)
let chain_dims = Pref.chain_dims

(* Is the head of a prioritization a chain on the data?  We accept the
   syntactic chains (LOWEST / HIGHEST / injective-by-construction rank is
   not guaranteed, so only the first two). *)
let syntactic_chain = function
  | Pref.Lowest _ | Pref.Highest _ -> true
  | Pref.Dual (Pref.Lowest _) | Pref.Dual (Pref.Highest _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Sampling-based statistics                                           *)

let sample_rows rows ~size =
  let n = List.length rows in
  if n <= size then rows
  else begin
    let step = n / size in
    List.filteri (fun i _ -> i mod step = 0) rows
  end

(* Pearson correlation of the first two dims on a sample, each folded by
   its sign so that larger is better on both: strongly negative
   correlation in preference space predicts large skylines, where divide
   & conquer dominates window algorithms. (LOWEST price and HIGHEST power
   correlate positively on the raw columns and trade off as
   preferences.) *)
let sampled_correlation schema (dims : Pref.dim list) rows =
  match dims with
  | a :: b :: _ -> (
    let folded (d : Pref.dim) =
      let i = Schema.index_of_exn schema d.attr
      and sign = if d.maximize then 1. else -1. in
      fun t -> Option.map (fun x -> sign *. x) (Value.as_float (Tuple.get t i))
    in
    let fa = folded a and fb = folded b in
    let sample = sample_rows rows ~size:500 in
    let xs =
      List.filter_map
        (fun t ->
          match fa t, fb t with Some x, Some y -> Some (x, y) | _ -> None)
        sample
    in
    match xs with
    | [] | [ _ ] -> 0.0
    | _ ->
      let n = float_of_int (List.length xs) in
      let mx = List.fold_left (fun acc (x, _) -> acc +. x) 0. xs /. n in
      let my = List.fold_left (fun acc (_, y) -> acc +. y) 0. xs /. n in
      let cov =
        List.fold_left (fun acc (x, y) -> acc +. ((x -. mx) *. (y -. my))) 0. xs
      in
      let sx =
        sqrt (List.fold_left (fun acc (x, _) -> acc +. ((x -. mx) ** 2.)) 0. xs)
      in
      let sy =
        sqrt (List.fold_left (fun acc (_, y) -> acc +. ((y -. my) ** 2.)) 0. xs)
      in
      if sx = 0. || sy = 0. then 0. else cov /. (sx *. sy))
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Plan choice                                                         *)

(* Minimum rows per domain before fanning out pays for the projection and
   merge overhead. *)
let par_chunk_threshold = 8192

let resolve_domains = function
  | Some d -> max 1 d
  | None -> Parallel.default_domains ()

(* ------------------------------------------------------------------ *)
(* Decision procedure                                                  *)

(* One decision record feeds both [choose] (which keeps only the plan)
   and [choose_traced] (which renders everything for EXPLAIN), so the two
   can never drift apart. *)
type decision = {
  d_plan : plan;
  d_correlation : float option;
  d_costs : (string * float) list;  (* predicted ms, cheapest first *)
  d_rejected : (string * string) list;
}

let pref_dims dims p =
  match dims with
  | Some dims -> List.length dims
  | None -> max 1 (List.length (Pref.attrs p))

(* Cost-based choice: price every alternative that can evaluate this
   preference shape and take the cheapest. Parallel plans carry their
   spawn + merge overhead, so they lose at small n no matter how many
   domains are available. [skyline] is {!Dominance.float_chain}: the
   window, filter and parallel passes then run on the float form, in any
   mix of directions; SFS and divide & conquer are offered only when the
   directions agree. *)
let decide_by_cost ~missed ~skyline ~d ~n schema p rows =
  let correlation =
    Option.map (fun dims -> sampled_correlation schema dims rows) skyline
  in
  let chain = Option.bind skyline Pref.same_direction in
  let dims = pref_dims skyline p in
  let w =
    {
      Cost.n;
      dims;
      domains = d;
      correlation = Option.value correlation ~default:0.;
    }
  in
  let candidates =
    [ ("bnl", Plan_bnl) ]
    @ (match chain with
      | Some (attrs, maximize) ->
        (if List.length attrs >= 2 then
           [ ("dnc", Plan_dnc { attrs; maximize }) ]
         else [])
        @ [ ("sfs", Plan_sfs { attrs; maximize }) ]
        @
        if d > 1 then
          [ ("par_sfs", Plan_par_sfs { attrs; maximize; domains = d }) ]
        else []
      | None -> [])
    @ (if d > 1 then [ ("par_dnc", Plan_par_dnc { domains = d }) ] else [])
    @ [ ("naive", Plan_naive); ("decompose", Plan_decompose) ]
  in
  let floats = skyline <> None in
  let priced =
    List.map
      (fun (k, plan) -> (k, plan, Cost.predict_ms ~floats ~kind:k w))
      candidates
  in
  let best =
    List.fold_left
      (fun ((_, _, bc) as acc) ((_, _, c) as cand) ->
        if c < bc then cand else acc)
      (List.hd priced) (List.tl priced)
  in
  let bk, bplan, bc = best in
  let by_cost =
    List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) priced
  in
  {
    d_plan = bplan;
    d_correlation = correlation;
    d_costs = List.map (fun (k, _, c) -> (k, c)) by_cost;
    d_rejected =
      missed
      @ List.filter_map
          (fun (k, _, c) ->
            if String.equal k bk then None
            else
              Some
                (k, Printf.sprintf "predicted %.3f ms vs %.3f ms for %s" c bc bk))
          by_cost;
  }

(* The pre-cost-model heuristics, kept behind [\set costmodel off] so a
   cost-model regression in production is bisectable to this switch. *)
let decide_by_rule ~missed ~skyline ~big ~big_str ~d schema rows =
  match skyline, Option.bind skyline Pref.same_direction with
  | Some dims, Some (attrs, maximize) ->
    let r = sampled_correlation schema dims rows in
    let anti = r < -0.3 in
    let not_dnc =
      if not anti then Printf.sprintf "r=%.2f >= -0.3: skyline expected small" r
      else "chain has a single dimension: no median split to recurse on"
    in
    if anti && List.length attrs >= 2 then
      (* Large-skyline regime: the recursive median split of [KLP75]
         beats window passes, and chunked windows would make the merge
         itself quadratic in the (huge) result. Keep it sequential. *)
      {
        d_plan = Plan_dnc { attrs; maximize };
        d_correlation = Some r;
        d_costs = [];
        d_rejected =
          missed
          @ [
              ( "bnl",
                Printf.sprintf
                  "r=%.2f < -0.3 predicts a large skyline: window passes go \
                   quadratic in the result" r );
              ( "par_sfs",
                "chunked windows would make the merge quadratic in the (huge) \
                 result" );
            ];
      }
    else if big then
      {
        d_plan = Plan_par_sfs { attrs; maximize; domains = d };
        d_correlation = Some r;
        d_costs = [];
        d_rejected =
          missed
          @ [
              ("dnc", not_dnc);
              ( "bnl",
                Printf.sprintf "n=%d >= %s rows feed every domain"
                  (List.length rows) big_str );
            ];
      }
    else
      {
        d_plan = Plan_bnl;
        d_correlation = Some r;
        d_costs = [];
        d_rejected =
          missed
          @ [
              ("dnc", not_dnc);
              ( "par_sfs",
                Printf.sprintf
                  "n=%d < %s: fan-out would not pay for projection and merge"
                  (List.length rows) big_str );
            ];
      }
  | _ ->
    if big then
      {
        d_plan = Plan_par_dnc { domains = d };
        d_correlation = None;
        d_costs = [];
        d_rejected =
          missed
          @ [
              ( "bnl",
                Printf.sprintf "n=%d >= %s rows feed every domain"
                  (List.length rows) big_str );
            ];
      }
    else
      {
        d_plan = Plan_bnl;
        d_correlation = None;
        d_costs = [];
        d_rejected =
          missed
          @ [
              ( "par_dnc",
                Printf.sprintf
                  "n=%d < %s: fan-out would not pay for projection and merge"
                  (List.length rows) big_str );
            ];
      }

let decide ~costmodel ~reuse ~probes ~d ~n schema p rel =
  let rows = Relation.rows rel in
  let big = d > 1 && n >= par_chunk_threshold * d in
  let big_str =
    Printf.sprintf "%d (= %d domains x %d)" (par_chunk_threshold * d) d
      par_chunk_threshold
  in
  match reuse with
  | Some Cache.Exact ->
    {
      d_plan = Plan_cache_hit;
      d_correlation = None;
      d_costs = [];
      d_rejected = [ ("bnl", "an exact cache hit beats any evaluation") ];
    }
  | Some (Cache.Semantic desc) ->
    {
      d_plan = Plan_cache_semantic desc;
      d_correlation = None;
      d_costs = [];
      d_rejected =
        [
          ( "bnl",
            "deriving from cached entries (" ^ desc
            ^ ") is predicted cheaper than re-evaluation" );
        ];
    }
  | None -> (
    let missed =
      if probes = [] then []
      else [ ("cache", "probe missed every applicable tier") ]
    in
    if n <= 64 then
      {
        d_plan = Plan_naive;
        d_correlation = None;
        d_costs = [];
        d_rejected =
          missed
          @ [ ("bnl", "n <= 64: window bookkeeping costs more than the n^2 scan") ];
      }
    else
      match p with
      | Pref.Prior (p1, p2) when syntactic_chain p1 ->
        (* Proposition 11: evaluate the chain first, then the rest on the
           (typically tiny) intermediate result. Structural, not costed:
           the cascade's first pass subsumes any alternative's scan. *)
        {
          d_plan = Plan_cascade (p1, p2);
          d_correlation = None;
          d_costs =
            (if costmodel then
               let w =
                 { Cost.n; dims = pref_dims None p; domains = d; correlation = 0. }
               in
               [
                 ("cascade", Cost.predict_ms ~kind:"cascade" w);
                 ("bnl", Cost.predict_ms ~kind:"bnl" w);
               ]
             else []);
          d_rejected =
            missed
            @ [
                ( "bnl",
                  "prioritisation head is a syntactic chain: the cascade \
                   prunes the input to a thin slice first (Prop. 11)" );
              ];
        }
      | _ ->
        let skyline = Dominance.float_chain schema p in
        if costmodel then decide_by_cost ~missed ~skyline ~d ~n schema p rows
        else decide_by_rule ~missed ~skyline ~big ~big_str ~d schema rows)

let choose ?(cache = true) ?(costmodel = true) ?domains schema p rel =
  Pref_obs.Span.with_span "bmo.plan.choose" @@ fun () ->
  let d = resolve_domains domains in
  let n = List.length (Relation.rows rel) in
  let reuse =
    if cache then Cache.probe ~gate:costmodel Cache.global schema p rel
    else None
  in
  (decide ~costmodel ~reuse ~probes:[] ~d ~n schema p rel).d_plan

(* ------------------------------------------------------------------ *)
(* Traced choice — the same [decide], with its inputs and the rejected
   alternatives (and their predicted costs) recorded for EXPLAIN. *)

type trace = {
  t_n : int;
  t_dims : int;
  t_domains : int;
  t_par_threshold : int;
  t_big : bool;
  t_chain : Pref.dim list option;
  t_correlation : float option;
  t_probes : Cache.tier_probe list;
  t_rejected : (string * string) list;
  t_estimate : float option;
  t_costs : (string * float) list;
}

let choose_traced ?(cache = true) ?(costmodel = true) ?probe ?domains schema p
    rel =
  let d = resolve_domains domains in
  let n = List.length (Relation.rows rel) in
  let big = d > 1 && n >= par_chunk_threshold * d in
  let reuse, probes =
    match probe with
    | Some r -> r
    | None ->
      if cache then Cache.probe_traced ~gate:costmodel Cache.global schema p rel
      else (None, [])
  in
  let chain = Dominance.float_chain schema p in
  let dims = pref_dims chain p in
  let estimate =
    if n = 0 then None else Some (Estimate.expected_skyline_size_fast ~n ~dims)
  in
  let dec = decide ~costmodel ~reuse ~probes ~d ~n schema p rel in
  ( dec.d_plan,
    {
      t_n = n;
      t_dims = dims;
      t_domains = d;
      t_par_threshold = par_chunk_threshold;
      t_big = big;
      t_chain = chain;
      t_correlation = dec.d_correlation;
      t_probes = probes;
      t_rejected = dec.d_rejected;
      t_estimate = estimate;
      t_costs = dec.d_costs;
    } )

(* ------------------------------------------------------------------ *)
(* Execution: the one map from plan to kernel                          *)

let plan_of_algorithm ?domains = function
  | Engine.Alg_naive -> Some Plan_naive
  | Engine.Alg_bnl -> Some Plan_bnl
  | Engine.Alg_decompose -> Some Plan_decompose
  | Engine.Alg_parallel ->
    Some (Plan_par_dnc { domains = resolve_domains domains })
  | Engine.Alg_auto -> None

type outcome = {
  o_tests : int;
  o_peak : int option;
  o_timed_out : bool;
  o_compile_ms : float;
  o_eval_ms : float;
  o_par : Parallel.stats option;
}

let uncounted =
  {
    o_tests = -1;
    o_peak = None;
    o_timed_out = false;
    o_compile_ms = 0.;
    o_eval_ms = 0.;
    o_par = None;
  }

(* The rows of [rel] at [idx] in [rows], as a relation. *)
let pick rel rows idx =
  Relation.make (Relation.schema rel)
    (Array.to_list (Array.map (Array.get rows) idx))

(* A pass over the points of {!Dominance.points}, whatever their form. *)
type 'r pass = { pass : 'p. ('p -> 'p -> bool) -> int -> (int -> 'p) -> int array * 'r }

(* Compile the points once; each run prepares the rows (timed as the
   compile phase), runs the pass and maps survivor indices back to rows. *)
let on_points ?presort schema p outcome { pass } =
  let points = Dominance.points ?presort schema p in
  fun rel ->
    let prepared, compile_ms =
      Pref_obs.Span.timed (fun () -> points (Array.of_list (Relation.rows rel)))
    in
    match prepared with
    | Points { rows; point; dom } ->
      let idx, r = pass dom (Array.length rows) point in
      (pick rel rows idx, outcome ~compile_ms r)

let of_window ~compile_ms (r : Bnl.run) =
  {
    uncounted with
    o_tests = r.tests;
    o_peak = Some r.peak;
    o_timed_out = r.timed_out;
    o_compile_ms = compile_ms;
  }

let of_parallel ~compile_ms (st : Parallel.stats) =
  {
    uncounted with
    o_tests = Parallel.total_tests st;
    o_compile_ms = compile_ms;
    o_par = Some st;
  }

(* The kernel a plan names. [kernel schema p plan] compiles once; the
   closure runs on any relation over [schema]. Only the window pass polls
   [deadline]. The chain fields of [Plan_sfs]/[Plan_dnc]/[Plan_par_sfs]
   restate [chain_dims p]; the points are built from the term. *)
let rec kernel ?deadline schema p plan =
  match plan with
  | Plan_naive ->
    let dom = Dominance.of_pref schema p in
    fun rel ->
      let dom, count = Dominance.counting dom in
      let best = Naive.maxima dom (Relation.rows rel) in
      ( Relation.make (Relation.schema rel) best,
        { uncounted with o_tests = count () } )
  | Plan_bnl ->
    on_points schema p of_window { pass = (fun d -> Bnl.window ?deadline d) }
  | Plan_sfs _ ->
    on_points ~presort:true schema p of_window { pass = (fun d -> Sfs.filter d) }
  | Plan_dnc _ ->
    let floats = Dominance.floats schema p in
    fun rel ->
      let rows = Array.of_list (Relation.rows rel) in
      let pts, compile_ms = Pref_obs.Span.timed (fun () -> floats rows) in
      ( pick rel rows (Dnc.maxima pts),
        { uncounted with o_compile_ms = compile_ms } )
  | Plan_par_dnc { domains } ->
    on_points schema p of_parallel
      { pass = (fun d -> Parallel.maxima_dnc ~domains d) }
  | Plan_par_sfs { domains; _ } ->
    on_points ~presort:true schema p of_parallel
      { pass = (fun d -> Parallel.maxima_sfs ~domains d) }
  | Plan_cascade (p1, p2) -> fun rel -> (Decompose.cascade schema p1 p2 rel, uncounted)
  | Plan_decompose -> fun rel -> (Decompose.eval schema p rel, uncounted)
  | Plan_identity -> fun rel -> (rel, uncounted)
  | Plan_cache_hit | Plan_cache_semantic _ -> (
    (* [choose] probed the cache; serve through the counting lookup. An
       eviction between probe and execute degrades to a plain BNL pass. *)
    fun rel ->
      match Cache.lookup Cache.global schema p rel with
      | Some (result, _) -> (result, uncounted)
      | None ->
        let ((result, _) as run) = kernel schema p Plan_bnl rel in
        Cache.store Cache.global schema p rel result;
        run)

let outcome_phases o =
  match o.o_par with
  | Some st ->
    [
      Pref_obs.Profile.phase "local" st.Parallel.s_local_ms;
      Pref_obs.Profile.phase "merge" st.Parallel.s_merge_ms;
    ]
  | None -> []

let outcome_attrs o =
  (match o.o_peak with
  | Some peak -> [ ("window_peak", string_of_int peak) ]
  | None -> [])
  @ match o.o_par with Some st -> Parallel.stats_attrs st | None -> []

(* Fold the measured runtime back into the cost model (per-kind EMA) and
   record the Prop. 13 filter effect the query exhibited. *)
let learn p plan ~rel ~result ~ms =
  let n_in = Relation.cardinality rel
  and n_out = Relation.cardinality result in
  let skyline = Dominance.float_chain (Relation.schema rel) p in
  let dims = pref_dims skyline p and floats = skyline <> None in
  let w = { Cost.n = n_in; dims; domains = 1; correlation = 0. } in
  (match plan with
  | Plan_naive | Plan_bnl | Plan_sfs _ | Plan_dnc _ | Plan_decompose
  | Plan_cascade _ ->
    Cost.observe ~floats ~kind:(plan_kind plan) w ~ms
  | Plan_par_dnc { domains } | Plan_par_sfs { domains; _ } ->
    Cost.observe ~floats ~kind:(plan_kind plan) { w with Cost.domains } ~ms
  | Plan_identity | Plan_cache_hit | Plan_cache_semantic _ -> ());
  Cost.observe_filter ~dims ~n_in ~n_out

(* Every kernel run is reported here and nowhere else: the query metrics,
   the window peak, the parallel-layer metrics and the span attributes.
   The gate keeps the cardinality walks and attribute strings off the
   path while telemetry is off. *)
let record ~kind ~rel ~result o =
  Obs.record_query
    ~algorithm:(if o.o_timed_out then kind ^ ":degraded" else kind)
    ~n_in:(Relation.cardinality rel)
    ~n_out:(Relation.cardinality result)
    ~comparisons:o.o_tests ~ms:o.o_eval_ms;
  Option.iter
    (fun peak -> Pref_obs.Metrics.set_max Obs.window_peak (float_of_int peak))
    o.o_peak;
  Option.iter
    (fun st ->
      Pref_obs.Metrics.incr Obs.par_queries;
      Array.iter
        (fun c ->
          Pref_obs.Metrics.observe Obs.par_chunk_rows
            (float_of_int c.Parallel.c_rows))
        st.Parallel.s_chunks;
      Pref_obs.Metrics.observe Obs.par_merge_ms st.Parallel.s_merge_ms)
    o.o_par;
  Pref_obs.Span.add_attrs (outcome_attrs o)

let evaluate ?deadline schema p rel plan =
  let kind = plan_kind plan in
  Pref_obs.Span.with_span ("bmo." ^ kind) @@ fun () ->
  let (result, o), ms =
    Pref_obs.Span.timed (fun () ->
        let run, stage_ms =
          Pref_obs.Span.timed (fun () -> kernel ?deadline schema p plan)
        in
        let result, o = run rel in
        (result, { o with o_compile_ms = stage_ms +. o.o_compile_ms }))
  in
  let o = { o with o_eval_ms = ms -. o.o_compile_ms } in
  if Pref_obs.Control.is_enabled () then record ~kind ~rel ~result o;
  if Cost.learning () && not o.o_timed_out then learn p plan ~rel ~result ~ms;
  (result, o)

let execute schema p rel plan = fst (evaluate schema p rel plan)

let run ?(cache = true) ?(costmodel = true) ?domains schema p rel =
  let plan = choose ~cache ~costmodel ?domains schema p rel in
  Obs.plan_chosen (plan_kind plan);
  let result = execute schema p rel plan in
  (match plan with
  | _ when not cache -> ()
  | Plan_cache_hit | Plan_cache_semantic _ -> ()
  | _ -> Cache.store Cache.global schema p rel result);
  (result, plan)

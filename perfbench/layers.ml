(* Per-layer probes for the traced run. Each probe calls one layer's
   public functions in-process, from the benchmark's own code, inside a
   span named after that layer; nothing under lib/ is instrumented.

   Which end-to-end metric each layer metric should move, and on which
   workload (the contract a later change states its claim against; the
   same table is in README.md). The gated end-to-end metric each moves
   is the program's CPU time, op_cpu_ms.geomean_p50; the printed figures
   in brackets move with it.

     relation.csv_load_ms             -> setup_s                 skyline_cold
     psql.parse_us, psql.translate_us -> op_cpu_ms.geomean_p50   serve_small
     psql.exec_ms                     -> op_cpu_ms.geomean_p50   all
     analysis.check_us                -> op_cpu_ms.geomean_p50   serve_small
     planner.choose_us, .chosen.*     -> op_cpu_ms.geomean_p50   serve_small
     planner.regret, cost.error_ratio -> op_cpu_ms.geomean_p50   skyline_cold
     kernel.*                         -> op_cpu_ms.geomean_p50
                                         (server_cpu_ms_per_op)  skyline_cold
     cache.probe_us, cache.hit_ratio  -> op_cpu_ms.geomean_p50
                                         (query_cpu_ms.p50)      serve_small
     incremental.*_delta_us           -> op_cpu_ms.geomean_p50
                                         (delta lag)             revise_rw
     session.run_ms                   -> op_cpu_ms.geomean_p50   all
     revise.*, session.refine_*       -> op_cpu_ms.geomean_p50   revise_rw
     session.insert_ms, delete_ms     -> op_cpu_ms.geomean_p50   revise_rw
     protocol.*                       -> op_cpu_ms.geomean_p50   serve_small
     server.wire_us                   -> op_cpu_ms.geomean_p50
                                         (query_ms.p50)          serve_small
     server.* STATS deltas            -> failed (delta lag)      all
     merge.*, router.*                -> op_cpu_ms.geomean_p50   routed *)

open Pref_relation
module Sp = Spans
module Planner = Pref_bmo.Planner
module Engine = Pref_bmo.Engine
module Exec = Pref_sql.Exec
module P = Pref_server.Protocol

let us ms = ms *. 1000.

(* Samples per metric name, in insertion order. *)
type acc = (string, float list) Hashtbl.t

let add (acc : acc) name v =
  Hashtbl.replace acc name (v :: Option.value (Hashtbl.find_opt acc name) ~default:[])

let samples (acc : acc) name = Option.value (Hashtbl.find_opt acc name) ~default:[]

(* The configuration every prefserve session starts from. *)
let server_config = { Engine.default with cache = true; check = true }

(* Quadratic plan kinds are only run up to this many input rows. *)
let quadratic_cap = 5_000

let plan_of_kind ~p ~domains kind =
  let chain = Planner.chain_dims p in
  match (kind, chain, p) with
  | "bnl", _, _ -> Some Planner.Plan_bnl
  | "naive", _, _ -> Some Planner.Plan_naive
  | "decompose", _, _ -> Some Planner.Plan_decompose
  | "sfs", Some (attrs, maximize), _ -> Some (Planner.Plan_sfs { attrs; maximize })
  | "dnc", Some (attrs, maximize), _ -> Some (Planner.Plan_dnc { attrs; maximize })
  | "par_sfs", Some (attrs, maximize), _ ->
    Some (Planner.Plan_par_sfs { attrs; maximize; domains })
  | "par_dnc", _, _ -> Some (Planner.Plan_par_dnc { domains })
  | "cascade", _, Preferences.Pref.Prior (p1, p2) -> Some (Planner.Plan_cascade (p1, p2))
  | _ -> None

let plan_kinds = [ "bnl"; "sfs"; "dnc"; "par_dnc"; "par_sfs"; "cascade"; "naive"; "decompose" ]

(* The rows a statement's winnow sees: its FROM table after WHERE. *)
let input_rel env (q : Pref_sql.Ast.query) =
  let rel = Option.get (Exec.find_table env (List.hd q.Pref_sql.Ast.from)) in
  match q.Pref_sql.Ast.where with
  | None -> rel
  | Some cond ->
    let schema = Relation.schema rel in
    Relation.select (Pref_sql.Translate.condition schema cond) rel

let counter () = Pref_obs.Metrics.count Pref_bmo.Obs.dominance_tests

(* Probe one statement through every layer it crosses on a server:
   parse, translate, static check, cache probe, plan choice, the BMO
   kernel the server runs (BNL, [Engine.default]), the planner's
   alternatives (for regret), the whole executor and a session, then
   the response codec. [cache] is a private, enabled result cache fed
   with each statement's result after its probe. *)
let statement (acc : acc) ~req ~env ~session ~cache ~regret sql =
  fst
  @@ Sp.span ~layer:"bench" ~req "statement"
  @@ fun id ->
    let q, ms = Sp.span ~layer:"psql" ~parent:id ~req "psql.parse" (fun _ -> Pref_sql.Parser.parse_query sql) in
    add acc "psql.parse_us" (us ms);
    let p, ms =
      Sp.span ~layer:"psql" ~parent:id ~req "psql.translate" (fun _ ->
          Pref_sql.Translate.pref (Option.get q.Pref_sql.Ast.preferring))
    in
    add acc "psql.translate_us" (us ms);
    let _, ms = Sp.span ~layer:"analysis" ~parent:id ~req "analysis.check" (fun _ -> Exec.static_check env q) in
    add acc "analysis.check_us" (us ms);
    let rel, _ = Sp.span ~layer:"bench" ~parent:id ~req "where" (fun _ -> input_rel env q) in
    let schema = Relation.schema rel in
    let n = max 1 (Relation.cardinality rel) in
    let _, ms =
      Sp.span ~layer:"bmo" ~parent:id ~req "cache.probe" (fun _ ->
          Pref_bmo.Cache.probe_traced cache schema p rel)
    in
    add acc "cache.probe_us" (us ms);
    let (chosen, trace), ms =
      Sp.span ~layer:"bmo" ~parent:id ~req "planner.choose" (fun _ ->
          Planner.choose_traced ~cache:false schema p rel)
    in
    add acc "planner.choose_us" (us ms);
    let kind = Planner.plan_kind chosen in
    add acc ("planner.chosen." ^ kind) 1.;
    (* the kernel, with the engine's counters on *)
    let tests0 = counter () and words0 = Gc.minor_words () in
    let result, ms =
      Pref_obs.Control.with_enabled true (fun () ->
          Sp.span ~layer:"bmo" ~parent:id ~req "kernel.bnl" (fun _ ->
              Planner.execute schema p rel Planner.Plan_bnl))
    in
    let tests = float_of_int (counter () - tests0) in
    add acc "kernel.eval_ms" ms;
    add acc "kernel.tests_per_row" (tests /. float_of_int n);
    if tests > 0. then add acc "kernel.ns_per_test" (ms *. 1e6 /. tests);
    add acc "kernel.alloc_words_per_row" ((Gc.minor_words () -. words0) /. float_of_int n);
    Pref_bmo.Cache.store cache schema p rel result;
    (* every plan kind the planner priced, quadratic ones size-capped *)
    if regret then begin
      let times =
        List.filter_map
          (fun (k, _) ->
            if (k = "naive" || k = "decompose") && n > quadratic_cap then None
            else
              match plan_of_kind ~p ~domains:trace.Planner.t_domains k with
              | None -> None
              | Some plan ->
                let _, ms =
                  Sp.span ~layer:"bmo" ~parent:id ~req ("planner.execute." ^ k) (fun _ ->
                      Planner.execute schema p rel plan)
                in
                Some (k, ms))
          trace.Planner.t_costs
      in
      match (List.assoc_opt kind times, times) with
      | Some chosen_ms, _ :: _ ->
        let best = List.fold_left (fun b (_, ms) -> Float.min b ms) infinity times in
        add acc "planner.regret" (chosen_ms /. best);
        Option.iter
          (fun predicted -> add acc "cost.error_ratio" (predicted /. chosen_ms))
          (List.assoc_opt kind trace.Planner.t_costs)
      | _ -> ()
    end;
    let r, ms =
      Sp.span ~layer:"psql" ~parent:id ~req "psql.exec" (fun _ -> Exec.run_cfg server_config env sql)
    in
    add acc "psql.exec_ms" ms;
    let _, session_ms =
      Sp.span ~layer:"engine" ~parent:id ~req "session.run" (fun _ -> Pref_engine.Session.run session sql)
    in
    add acc "session.run_ms" session_ms;
    let frame, ms =
      Sp.span ~layer:"server" ~parent:id ~req "protocol.encode_response" (fun _ ->
          P.encode_response
            (P.Rows { relation = r.Exec.relation; flags = r.Exec.flags; served = None; trace = None }))
    in
    add acc "protocol.encode_response_us" (us ms);
    add acc "protocol.response_bytes" (float_of_int (String.length frame));
    let _, ms =
      Sp.span ~layer:"server" ~parent:id ~req "protocol.parse_response" (fun _ -> P.parse_response frame)
    in
    add acc "protocol.parse_response_us" (us ms);
    session_ms

(* The revision path of revise_rw, in-process: a session runs the base
   statement, the two REFINEs and the insert/delete of each generated
   row, exactly as the wire loop does; [Incremental] maintains σ[base]
   through the same rows. *)
let revise (acc : acc) ~env ~rows =
  let module Session = Pref_engine.Session in
  let module Revise = Pref_engine.Revise in
  let session = Session.create ~config:server_config ~env () in
  let term s = Pref_sql.Translate.pref (Pref_sql.Parser.parse_pref s) in
  let base_p = term Gen.base_term and seed_p = term Gen.seed_term and hot_p = term Gen.hot_term in
  let seeded = ref 0 and refines = ref 0 in
  let refine name term =
    let o, ms = Sp.span ~layer:"engine" name (fun _ -> Session.refine session term) in
    add acc name ms;
    incr refines;
    if o.Revise.o_plan <> "cold" then incr seeded
  in
  List.iter
    (fun (_, row) ->
      let _, ms = Sp.span ~layer:"engine" "session.run" (fun _ -> Session.run session Gen.base_sql) in
      add acc "session.run_ms" ms;
      List.iter
        (fun (old_p, new_p) ->
          let _, ms = Sp.span ~layer:"engine" "revise.classify" (fun _ -> Revise.classify ~old_p ~new_p) in
          add acc "revise.classify_us" (us ms))
        [ (base_p, seed_p); (seed_p, hot_p) ];
      refine "session.refine_seed_ms" Gen.seed_term;
      refine "session.refine_hot_ms" Gen.hot_term;
      let _, ms = Sp.span ~layer:"engine" "session.insert" (fun _ -> Session.insert session "cars" row) in
      add acc "session.insert_ms" ms;
      let _, ms = Sp.span ~layer:"engine" "session.delete" (fun _ -> Session.delete session "cars" row) in
      add acc "session.delete_ms" ms)
    rows;
  add acc "revise.seed_served_ratio" (float_of_int !seeded /. float_of_int (max 1 !refines));
  (* the subscription's maintained state: σ[base] plus its shadow *)
  let rel = Option.get (Exec.find_table env "cars") in
  let schema = Relation.schema rel in
  let best = Relation.rows (Exec.run_cfg Engine.default env Gen.base_sql).Exec.relation in
  let in_best = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace in_best t ()) best;
  let shadow = List.filter (fun t -> not (Hashtbl.mem in_best t)) (Relation.rows rel) in
  let inc = Pref_bmo.Incremental.of_parts schema base_p ~result:best ~shadow in
  List.iter
    (fun (_, row) ->
      let _, ms =
        Sp.span ~layer:"bmo" "incremental.insert_delta" (fun _ ->
            Pref_bmo.Incremental.insert_delta inc row)
      in
      add acc "incremental.insert_delta_us" (us ms);
      let _, ms =
        Sp.span ~layer:"bmo" "incremental.delete_delta" (fun _ ->
            Pref_bmo.Incremental.delete_delta inc row)
      in
      add acc "incremental.delete_delta_us" (us ms))
    rows

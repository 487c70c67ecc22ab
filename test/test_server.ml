(* End-to-end server tests: a real listener on an ephemeral port, real
   clients over TCP. Covers wire parity with local execution, session
   isolation, deadline degradation, admission control, the multi-client
   soak invariant, and graceful drain. *)

open Pref_relation
open Pref_bmo
open Pref_server
module Synthetic = Pref_workload.Synthetic

let check = Alcotest.(check bool)
let host = "127.0.0.1"

let sky = Synthetic.relation ~seed:7 ~n:300 ~dims:3 Synthetic.Anti_correlated

(* big enough that a naive O(n^2) BMO visibly occupies an executor *)
let big = Synthetic.relation ~seed:8 ~n:2500 ~dims:3 Synthetic.Anti_correlated
let env = [ ("sky", sky); ("big", big) ]

let sky_query =
  "SELECT * FROM sky PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2)"

let with_server ?config ?(env = env) f =
  let config =
    Option.value config
      ~default:{ Server.default_config with host; port = 0 }
  in
  let server = Server.start ~config ~env () in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client server f =
  let c = Client.connect ~host ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let counter server name =
  match List.assoc_opt name (Server.counters server) with
  | Some v -> v
  | None -> Alcotest.failf "no server counter %s" name

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_server (fun server ->
      with_client server (fun c ->
          check "ping" true (Client.ping c);
          (* the wire result matches local execution exactly *)
          let local = Pref_sql.Exec.run env sky_query in
          (match Client.query c sky_query with
          | Ok (rel, flags) ->
            check "wire = local" true
              (Relation.equal_as_sets rel local.Pref_sql.Exec.relation);
            check "complete" true (flags = Engine.complete)
          | Error e -> Alcotest.fail e);
          (* prepared statements *)
          (match Client.prepare c ~name:"best" sky_query with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (match Client.query c "@best" with
          | Ok (rel, _) ->
            check "prepared = direct" true
              (Relation.equal_as_sets rel local.Pref_sql.Exec.relation)
          | Error e -> Alcotest.fail e);
          (* engine knobs answer with their new value *)
          (match Client.set c ~key:"maxrows" ~value:"2" with
          | Ok line -> check "set confirms" true (line = "maxrows: 2")
          | Error e -> Alcotest.fail e);
          (match Client.query c sky_query with
          | Ok (rel, flags) ->
            check "maxrows caps over the wire" true
              (Relation.cardinality rel = 2 && flags.Engine.truncated)
          | Error e -> Alcotest.fail e);
          (* stats include both server and session counters *)
          match Client.stats c with
          | Ok kvs ->
            check "server.queries present" true
              (List.mem_assoc "server.queries" kvs);
            check "session saw 3 queries" true
              (List.assoc_opt "session.queries" kvs = Some "3")
          | Error e -> Alcotest.fail e))

let test_errors_over_wire () =
  with_server (fun server ->
      with_client server (fun c ->
          let expect_error ~containing sql =
            match Client.query c sql with
            | Ok _ -> Alcotest.failf "expected an error for %s" sql
            | Error msg ->
              let n = String.length containing in
              let rec go i =
                i + n <= String.length msg
                && (String.sub msg i n = containing || go (i + 1))
              in
              if not (go 0) then
                Alcotest.failf "error %S does not mention %S" msg containing
          in
          (* typo'd table names come back with a suggestion *)
          expect_error ~containing:{|"sky"|}
            "SELECT * FROM sk PREFERRING LOWEST(d0)";
          (* parse errors are fatal but keep the connection alive *)
          expect_error ~containing:"[parse]" "SELEC * FROM sky";
          (* unknown prepared statement *)
          expect_error ~containing:"prepared" "@nope";
          check "connection survives errors" true (Client.ping c);
          check "errors counted" true (counter server "server.errors" = 3)))

let test_session_isolation () =
  with_server (fun server ->
      with_client server (fun a ->
          with_client server (fun b ->
              (match Client.set a ~key:"maxrows" ~value:"1" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              let ra =
                match Client.query a sky_query with
                | Ok (rel, _) -> rel
                | Error e -> Alcotest.fail e
              in
              let rb =
                match Client.query b sky_query with
                | Ok (rel, _) -> rel
                | Error e -> Alcotest.fail e
              in
              check "a capped" true (Relation.cardinality ra = 1);
              check "b unaffected" true (Relation.cardinality rb > 1))))

let test_deadline_degradation () =
  with_server (fun server ->
      with_client server (fun c ->
          (match Client.set c ~key:"deadline" ~value:"0" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (match Client.query c sky_query with
          | Ok (rel, flags) ->
            check "degraded frame is partial" true flags.Engine.partial;
            check "well-formed empty prefix" true (Relation.cardinality rel = 0)
          | Error e -> Alcotest.fail e);
          check "deadline_exceeded counted" true
            (counter server "server.deadline_exceeded" = 1);
          check "degraded counted" true (counter server "server.degraded" = 1);
          (* lifting the deadline restores full results on the same
             connection *)
          (match Client.set c ~key:"deadline" ~value:"off" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          match Client.query c sky_query with
          | Ok (rel, flags) ->
            check "full again" true
              ((not flags.Engine.partial) && Relation.cardinality rel > 0)
          | Error e -> Alcotest.fail e))

let test_admission_control () =
  let config =
    {
      Server.default_config with
      host;
      port = 0;
      executors = 1;
      max_inflight = 1;
    }
  in
  with_server ~config (fun server ->
      let slow = "SELECT * FROM big PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2)" in
      (* 0 = running, 1 = completed, 2 = failed *)
      let slow_state = Atomic.make 0 in
      let slow_thread =
        Thread.create
          (fun () ->
            try
              with_client server (fun c ->
                  (match Client.set c ~key:"algorithm" ~value:"naive" with
                  | Ok _ -> ()
                  | Error e -> failwith e);
                  (match Client.set c ~key:"cache" ~value:"off" with
                  | Ok _ -> ()
                  | Error e -> failwith e);
                  (* the probe client competes for the single slot, so
                     the slow query itself may bounce a few times *)
                  match Client.query_retry ~attempts:10_000 c slow with
                  | Ok _ -> Atomic.set slow_state 1
                  | Error e -> failwith e)
            with e ->
              Atomic.set slow_state 2;
              prerr_endline (Printexc.to_string e))
          ()
      in
      with_client server (fun c ->
          (* wait until the slow query actually occupies the executor *)
          while counter server "server.running" < 1 && Atomic.get slow_state = 0 do
            Thread.delay 0.002
          done;
          (* probe while the single executor is occupied: with
             max_inflight = 1 the probe must bounce with a retriable busy *)
          let saw_busy = ref false in
          while (not !saw_busy) && Atomic.get slow_state = 0 do
            match Client.query c sky_query with
            | Error msg ->
              check "busy is marked retriable by the client" true
                (String.length msg >= 6 && String.sub msg 0 6 = "[busy]");
              saw_busy := true
            | Ok _ -> Thread.delay 0.002
          done;
          check "admission control rejected the probe" true !saw_busy;
          check "rejection counted" true (counter server "server.busy_rejected" >= 1);
          (* and the retriable rejection is in fact retriable *)
          match Client.query_retry ~attempts:10_000 ~backoff_s:0.005 c sky_query with
          | Ok (rel, _) -> check "retry succeeds" true (Relation.cardinality rel > 0)
          | Error e -> Alcotest.fail e);
      Thread.join slow_thread;
      check "slow query completed" true (Atomic.get slow_state = 1))

let test_soak () =
  with_server (fun server ->
      let clients = 16 and queries_per_client = 25 in
      match
        Soak.run ~host ~port:(Server.port server) ~clients ~queries_per_client
          ~statements:
            [
              sky_query;
              "SELECT d0, d1 FROM sky PREFERRING LOWEST(d0)";
              "SELECT * FROM sky PREFERRING HIGHEST(d2)";
            ]
          ()
      with
      | Error fatal -> Alcotest.fail fatal
      | Ok report ->
        check "every query got exactly one response" true
          (report.Soak.sent = clients * queries_per_client);
        if report.Soak.errors > 0 then
          Alcotest.failf "soak errors: %a" Soak.pp_report report;
        check "responses account: sent = ok + degraded + errors" true
          (report.Soak.sent
          = report.Soak.ok + report.Soak.degraded + report.Soak.errors);
        (* the server agrees: it executed every admitted query *)
        check "server counted them all" true
          (counter server "server.queries" = report.Soak.sent);
        check "none dropped by errors" true (counter server "server.errors" = 0))

let test_graceful_drain () =
  let server = Server.start ~config:{ Server.default_config with host; port = 0 } ~env () in
  let c = Client.connect ~host ~port:(Server.port server) () in
  check "live before drain" true (Client.ping c);
  (* stop with an idle connection open: must complete, not hang *)
  Server.stop server;
  check "drain leaves no connections" true
    (counter server "server.active_connections" = 0);
  (* the client sees a clean EOF *)
  check "client connection is closed" true
    (try
       ignore (Client.ping c);
       false
     with
     | Client.Closed | Client.Response_lost _ | Unix.Unix_error _ -> true);
  Client.close c;
  (* stop is idempotent *)
  Server.stop server;
  (* and the port no longer accepts *)
  check "listener is gone" true
    (try
       let c2 = Client.connect ~host ~port:(Server.port server) () in
       (* a lingering TIME_WAIT accept would still fail on first use *)
       let alive = try Client.ping c2 with _ -> false in
       Client.close c2;
       not alive
     with Unix.Unix_error _ -> true)

let test_drain_rejects_retriably () =
  (* while draining, an admitted-but-unserved query is answered with a
     retriable ERR, never silence: simulate by submitting right at stop
     time on a server with one slow executor *)
  let config =
    {
      Server.default_config with
      host;
      port = 0;
      executors = 1;
      max_inflight = 4;
    }
  in
  let server = Server.start ~config ~env () in
  let drain_msg = ref None in
  let probe =
    Thread.create
      (fun () ->
        match Client.connect ~host ~port:(Server.port server) () with
        | exception _ -> ()
        | c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            (* keep querying until the drain cuts us off; a drain
               rejection must be a well-formed retriable frame *)
            let rec loop () =
              match Client.query c sky_query with
              | Ok _ -> loop ()
              | Error msg ->
                drain_msg := Some msg
            in
            try loop () with
            | Client.Closed | Client.Response_lost _ | Unix.Unix_error _
            | Protocol.Framing_error _ -> ()))
      ()
  in
  Thread.delay 0.05;
  Server.stop server;
  Thread.join probe;
  (match !drain_msg with
  | Some msg ->
    check "drain rejection is the draining kind" true
      (String.length msg >= 6 && String.sub msg 0 6 = "[drain")
  | None ->
    (* the probe may simply have been cut at a frame boundary — that is
       also a legal drain outcome *)
    ());
  check "drained" true (counter server "server.draining" = 1)

(* ------------------------------------------------------------------ *)
(* Observability: trace propagation, EXPLAIN, METRICS, slowlog          *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_trace_echo () =
  with_server (fun server ->
      with_client server (fun c ->
          (* the echoed trace is byte-identical to the one sent *)
          (match Client.query_traced c sky_query with
          | Ok (_, _, Some _) -> ()
          | Ok (_, _, None) -> Alcotest.fail "no trace echoed on ROWS"
          | Error e -> Alcotest.fail e);
          let tr = Client.fresh_trace () in
          (match Client.request c (Protocol.Query { sql = sky_query; trace = Some tr }) with
          | Protocol.Rows { trace = Some echoed; _ } ->
            check "echo is the request trace" true (echoed = tr)
          | _ -> Alcotest.fail "expected traced ROWS");
          (* errors echo it too, so a failed call still stitches *)
          (match Client.request c (Protocol.Query { sql = "SELEC nope"; trace = Some tr }) with
          | Protocol.Err { trace = Some echoed; _ } ->
            check "error echoes the trace" true (echoed = tr)
          | _ -> Alcotest.fail "expected traced ERR");
          (* untraced requests stay untraced *)
          match Client.request c (Protocol.Query { sql = sky_query; trace = None }) with
          | Protocol.Rows { trace = None; _ } -> ()
          | _ -> Alcotest.fail "expected an untraced ROWS"))

(* Timings differ between two runs of the same decision; everything else
   in the report must not. Mask "<float> ms" token pairs and single
   "<float>ms" cells. *)
let normalize_plan_text body =
  let mask w =
    let n = String.length w in
    if n > 2 && String.sub w (n - 2) 2 = "ms"
       && float_of_string_opt (String.sub w 0 (n - 2)) <> None
    then "_ms"
    else
      (* "local_ms=0.017"-style operator attributes *)
      match String.index_opt w '=' with
      | Some eq
        when eq >= 3
             && String.sub w (eq - 3) 3 = "_ms"
             && float_of_string_opt
                  (String.sub w (eq + 1) (n - eq - 1))
                <> None ->
        String.sub w 0 (eq + 1) ^ "_"
      | _ -> w
  in
  String.split_on_char '\n' body
  |> List.map (fun line ->
         let words = String.split_on_char ' ' line in
         let rec go = function
           | w :: "ms" :: rest when float_of_string_opt w <> None ->
             "_" :: "ms" :: go rest
           | w :: rest -> mask w :: go rest
           | [] -> []
         in
         String.concat " " (go words))

let test_explain_wire_parity () =
  (* the in-process server and the local comparison session share
     [Cache.global]; start from a known state and leave none behind *)
  Pref_bmo.Cache.set_enabled false;
  Pref_bmo.Cache.clear Pref_bmo.Cache.global;
  Fun.protect
    ~finally:(fun () ->
      Pref_bmo.Cache.set_enabled false;
      Pref_bmo.Cache.clear Pref_bmo.Cache.global)
  @@ fun () ->
  with_server (fun server ->
      with_client server (fun c ->
          (* a local session configured exactly like the server's *)
          let session =
            Pref_engine.Session.create
              ~config:Server.default_config.Server.session_config ~env ()
          in
          let parity ?(analyze = false) label sql =
            let local =
              String.concat "\n"
                (Pref_bmo.Explain.Plan.to_text
                   (Pref_engine.Session.explain session ~analyze sql))
            in
            match Client.explain ~analyze c sql with
            | Error e -> Alcotest.fail e
            | Ok wire ->
              if normalize_plan_text local <> normalize_plan_text wire then
                Alcotest.failf "%s: local/wire EXPLAIN differ:\n%s\n----\n%s"
                  label local wire
          in
          let set key value =
            (match Client.set c ~key ~value with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            match Pref_engine.Session.set session ~key ~value with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e
          in
          (* default knob forces bnl; ANALYZE runs the real sigma, which
             is why this phase keeps the cache off (it would store) *)
          parity "bnl" sky_query;
          parity ~analyze:true "bnl analyze" sky_query;
          set "algorithm" "parallel";
          set "domains" "2";
          parity "par-dnc" "SELECT * FROM sky PREFERRING LOWEST(d0)";
          parity ~analyze:true "par-dnc analyze"
            "SELECT * FROM sky PREFERRING LOWEST(d0)";
          set "algorithm" "auto";
          parity "auto" sky_query;
          (* populate the shared cache through the wire, then both sides
             must explain the same reuse *)
          Pref_bmo.Cache.set_enabled true;
          Pref_bmo.Cache.clear Pref_bmo.Cache.global;
          (match Client.query c sky_query with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          parity "cache-exact" sky_query;
          let base2 = "SELECT * FROM sky PREFERRING LOWEST(d0) AND LOWEST(d1)" in
          (match Client.query c base2 with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (* a refinement over a fresh attribute: served from the cached
             prefix, so both reports must show the semantic tier *)
          parity "cache-semantic" (base2 ^ " PRIOR TO HIGHEST(d2)");
          (* the wire report names the tiers *)
          match Client.explain c (base2 ^ " PRIOR TO HIGHEST(d2)") with
          | Ok body ->
            check "probe table on the wire" true (contains body "cache probes:");
            check "semantic reuse on the wire" true
              (contains body "cache(semantic")
          | Error e -> Alcotest.fail e))

let test_metrics_op () =
  Pref_obs.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Pref_obs.Control.set_enabled false)
  @@ fun () ->
  with_server (fun server ->
      with_client server (fun c ->
          (match Client.query c sky_query with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (match Client.metrics c with
          | Ok body ->
            check "exposition format" true (contains body "# TYPE ");
            check "server counters exported" true
              (contains body "server_queries_total")
          | Error e -> Alcotest.fail e);
          match Client.metrics ~json:true c with
          | Ok body -> check "json snapshot" true (contains body "\"server.queries\"")
          | Error e -> Alcotest.fail e))

let test_slowlog () =
  Pref_engine.Slowlog.clear ();
  let path = Filename.temp_file "slowlog" ".jsonl" in
  Pref_engine.Slowlog.set_file (Some path);
  Fun.protect
    ~finally:(fun () ->
      Pref_engine.Slowlog.set_file None;
      (try Sys.remove path with Sys_error _ -> ()))
  @@ fun () ->
  with_server (fun server ->
      with_client server (fun c ->
          (* threshold 0: every statement is slow *)
          (match Client.set c ~key:"slowlog" ~value:"0" with
          | Ok line -> check "knob confirms" true (contains line "slowlog")
          | Error e -> Alcotest.fail e);
          (match Client.query c sky_query with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          check "recorded" true (Pref_engine.Slowlog.count () >= 1);
          (match Pref_engine.Slowlog.recent () with
          | entry :: _ ->
            let s = Pref_obs.Json.to_string entry in
            check "entry carries the query text" true (contains s "PREFERRING");
            check "entry carries a session id" true (contains s "\"session\"")
          | [] -> Alcotest.fail "ring is empty");
          (* the count surfaces in STATS *)
          (match Client.stats c with
          | Ok kvs ->
            check "server.slow_queries in STATS" true
              (match List.assoc_opt "server.slow_queries" kvs with
              | Some v -> int_of_string v >= 1
              | None -> false)
          | Error e -> Alcotest.fail e);
          (* and the file sink got one JSON line per entry *)
          let ic = open_in path in
          let lines = In_channel.input_lines ic in
          close_in ic;
          check "file sink has entries" true (List.length lines >= 1);
          check "file lines are JSON objects" true
            (List.for_all
               (fun l -> String.length l > 0 && l.[0] = '{')
               lines)))

let test_metrics_http () =
  Pref_obs.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Pref_obs.Control.set_enabled false)
  @@ fun () ->
  let m = Metrics_http.start ~host ~port:0 () in
  Fun.protect ~finally:(fun () -> Metrics_http.stop m)
  @@ fun () ->
  let fetch path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string host, Metrics_http.port m));
        let req = "GET " ^ path ^ " HTTP/1.0\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 1024 in
        let rec drain () =
          match Unix.read fd chunk 0 1024 with
          | 0 -> Buffer.contents buf
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        in
        drain ())
  in
  Pref_obs.Metrics.incr (Pref_obs.Metrics.counter "test.http.ping");
  let resp = fetch "/metrics" in
  check "200" true (contains resp "HTTP/1.0 200 OK");
  check "prometheus content type" true
    (contains resp "text/plain; version=0.0.4");
  check "body has the counter" true (contains resp "test_http_ping_total");
  check "404s unknown paths" true (contains (fetch "/nope") "404")

(* scrapes are never turned away: eight connections open at once all
   get an HTTP answer *)
let test_metrics_http_concurrent () =
  Pref_obs.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Pref_obs.Control.set_enabled false)
  @@ fun () ->
  let m = Metrics_http.start ~host ~port:0 () in
  Fun.protect ~finally:(fun () -> Metrics_http.stop m) @@ fun () ->
  let fds =
    List.init 8 (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string host, Metrics_http.port m));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
        fd)
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with _ -> ()) fds)
  @@ fun () ->
  let req = "GET /metrics HTTP/1.0\r\n\r\n" in
  List.iter
    (fun fd -> ignore (Unix.write_substring fd req 0 (String.length req)))
    fds;
  let read_all fd =
    let buf = Buffer.create 1024 in
    let chunk = Bytes.create 1024 in
    let rec go () =
      match Unix.read fd chunk 0 1024 with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    in
    go ()
  in
  List.iteri
    (fun i fd ->
      let resp = read_all fd in
      check (Printf.sprintf "scrape %d answered 200" i) true
        (contains resp "HTTP/1.0 200 OK");
      check "the listener adds no metrics of its own" false
        (contains resp "metrics_http"))
    fds

(* ------------------------------------------------------------------ *)
(* Changing preferences: REFINE, single-row DML, SUBSCRIBE             *)

let test_refine_wire () =
  with_server (fun server ->
      with_client server (fun c ->
          (* refining before any preference query is a clean, non-fatal
             error *)
          (match Client.refine c "LOWEST(d0)" with
          | Ok _ -> Alcotest.fail "refine without a seed must fail"
          | Error msg -> check "names the problem" true (contains msg "refine"));
          check "connection survives" true (Client.ping c);
          (match Client.query c "SELECT * FROM sky PREFERRING LOWEST(d0)" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          let cold sql = (Pref_sql.Exec.run env sql).Pref_sql.Exec.relation in
          (match Client.refine c "LOWEST(d0) PRIOR TO LOWEST(d1)" with
          | Ok (rel, flags) ->
            check "refined = local cold run" true
              (Relation.equal_as_sets rel
                 (cold
                    "SELECT * FROM sky PREFERRING LOWEST(d0) PRIOR TO \
                     LOWEST(d1)"));
            check "complete" true (flags = Engine.complete)
          | Error e -> Alcotest.fail e);
          (* the revision became the connection's statement: chain another *)
          match
            Client.refine c "(LOWEST(d0) PRIOR TO LOWEST(d1)) AND HIGHEST(d2)"
          with
          | Ok (rel, _) ->
            check "chained refine is exact" true
              (Relation.equal_as_sets rel
                 (cold
                    "SELECT * FROM sky PREFERRING (LOWEST(d0) PRIOR TO \
                     LOWEST(d1)) AND HIGHEST(d2)"))
          | Error e -> Alcotest.fail e))

(* another connection's DML drops this connection's revision seed but
   keeps its statement: the REFINE runs cold over the new table, as the
   router's re-issued statement does *)
let test_refine_after_other_dml () =
  with_server (fun server ->
      with_client server (fun a ->
          with_client server (fun b ->
              (match Client.query a "SELECT * FROM sky PREFERRING LOWEST(d0)" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              (match Client.insert b ~table:"sky" "-1.0,0.5,0.5" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              let sky' =
                Relation.make (Relation.schema sky)
                  (Relation.rows sky
                  @ [ Tuple.make [ Value.Float (-1.0); Value.Float 0.5; Value.Float 0.5 ] ])
              in
              let cold =
                (Pref_sql.Exec.run [ ("sky", sky') ]
                   "SELECT * FROM sky PREFERRING LOWEST(d0) PRIOR TO LOWEST(d1)")
                  .Pref_sql.Exec.relation
              in
              match Client.refine a "LOWEST(d0) PRIOR TO LOWEST(d1)" with
              | Ok (rel, _) ->
                check "refine after a concurrent insert = cold run" true
                  (Relation.equal_as_sets rel cold)
              | Error e -> Alcotest.failf "refine after another connection's DML: %s" e)))

let feed_schema = Schema.make [ ("k", Value.TInt); ("pad", Value.TStr) ]
let feed_row k pad = Tuple.make [ Value.Int k; Value.Str pad ]

let test_dml_wire () =
  let feed = Relation.make feed_schema [ feed_row 1 "a"; feed_row 2 "b" ] in
  with_server ~env:[ ("feed", feed) ] (fun server ->
      with_client server (fun a ->
          with_client server (fun b ->
              (match Client.insert a ~table:"feed" "3,c" with
              | Ok line -> check "ack" true (contains line "inserted into feed")
              | Error e -> Alcotest.fail e);
              (* the write is visible to the other connection *)
              (match Client.query b "SELECT * FROM feed" with
              | Ok (rel, _) ->
                check "insert visible across connections" true
                  (Relation.equal_as_sets rel
                     (Relation.make feed_schema
                        [ feed_row 1 "a"; feed_row 2 "b"; feed_row 3 "c" ]))
              | Error e -> Alcotest.fail e);
              (match Client.delete b ~table:"feed" "1,a" with
              | Ok line ->
                check "delete ack" true (contains line "deleted from feed")
              | Error e -> Alcotest.fail e);
              (match Client.query a "SELECT * FROM feed" with
              | Ok (rel, _) ->
                check "delete visible across connections" true
                  (Relation.equal_as_sets rel
                     (Relation.make feed_schema
                        [ feed_row 2 "b"; feed_row 3 "c" ]))
              | Error e -> Alcotest.fail e);
              (* an absent row is a plain error, not silence *)
              (match Client.delete a ~table:"feed" "9,zz" with
              | Ok _ -> Alcotest.fail "deleting an absent row must fail"
              | Error msg ->
                check "absent delete" true (contains msg "no matching row"));
              (* malformed rows and unknown tables are rejected cleanly *)
              (match Client.insert a ~table:"feed" "only-one-column" with
              | Ok _ -> Alcotest.fail "arity mismatch must fail"
              | Error _ -> ());
              (match Client.insert a ~table:"nope" "1,a" with
              | Ok _ -> Alcotest.fail "unknown table must fail"
              | Error msg -> check "unknown table" true (contains msg "nope"));
              check "connection survives DML errors" true (Client.ping a))))

let test_subscribe_stream () =
  let env = [ ("feed", Relation.make feed_schema [ feed_row 0 "seed" ]) ] in
  with_server ~env (fun server ->
      with_client server (fun sub ->
          with_client server (fun writer ->
              (* shape errors leave the connection usable *)
              (match Client.subscribe sub "SELECT * FROM feed" with
              | Ok _ -> Alcotest.fail "SUBSCRIBE without PREFERRING must fail"
              | Error msg ->
                check "asks for PREFERRING" true (contains msg "PREFERRING"));
              check "still a request connection" true (Client.ping sub);
              let replica = ref [] in
              (match
                 Client.subscribe sub "SELECT * FROM feed PREFERRING HIGHEST(k)"
               with
              | Ok (snapshot, flags) ->
                check "snapshot is the current BMO set" true
                  (Relation.equal_as_sets snapshot
                     (Relation.make feed_schema [ feed_row 0 "seed" ]));
                check "complete" true (flags = Engine.complete);
                replica := Relation.rows snapshot
              | Error e -> Alcotest.fail e);
              let remove_one t l =
                let rec go acc = function
                  | [] -> List.rev acc
                  | x :: rest ->
                    if Tuple.equal x t then List.rev_append acc rest
                    else go (x :: acc) rest
                in
                go [] l
              in
              let apply (d : Client.delta) =
                if d.Client.d_resync then
                  replica := Relation.rows d.Client.d_added
                else
                  replica :=
                    List.fold_left
                      (fun acc t -> remove_one t acc)
                      !replica
                      (Relation.rows d.Client.d_removed)
                    @ Relation.rows d.Client.d_added
              in
              let replica_is rows =
                Relation.equal_as_sets
                  (Relation.make feed_schema !replica)
                  (Relation.make feed_schema rows)
              in
              (* phase 1: zero-loss soak — every DML event arrives as
                 exactly one plain delta, in order *)
              for k = 1 to 40 do
                match
                  Client.insert writer ~table:"feed"
                    (Printf.sprintf "%d,p%d" k k)
                with
                | Ok _ -> ()
                | Error e -> Alcotest.fail e
              done;
              for _ = 1 to 40 do
                match Client.next_delta ~timeout_s:5. sub with
                | Some d ->
                  check "soak deltas are plain" true (not d.Client.d_resync);
                  apply d
                | None -> Alcotest.fail "stream closed during soak"
              done;
              check "replica tracked every event" true
                (replica_is [ feed_row 40 "p40" ]);
              check "no resync during the soak" true
                (counter server "server.subscription_resyncs" = 0);
              (* deleting the best row streams the promotion *)
              (match Client.delete writer ~table:"feed" "40,p40" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              (match Client.next_delta ~timeout_s:5. sub with
              | Some d ->
                apply d;
                check "delete demotes and promotes" true
                  (replica_is [ feed_row 39 "p39" ])
              | None -> Alcotest.fail "no delta for the delete");
              (* phase 2: stop reading and flood with wide rows until the
                 bounded per-subscriber queue overflows — the stream must
                 recover with one full-snapshot resync frame *)
              let pad = String.make 65536 'x' in
              let last = ref 39 in
              let k = ref 100 in
              while
                counter server "server.subscription_resyncs" = 0 && !k < 1000
              do
                (match
                   Client.insert writer ~table:"feed"
                     (Printf.sprintf "%d,%s" !k pad)
                 with
                | Ok _ -> last := !k
                | Error e -> Alcotest.fail e);
                incr k
              done;
              check "the flood forced an overflow" true
                (counter server "server.subscription_resyncs" >= 1);
              let final = [ feed_row !last pad ] in
              let saw_resync = ref false in
              let budget = ref 2000 in
              let rec catch_up () =
                if not (replica_is final) then begin
                  decr budget;
                  if !budget = 0 then Alcotest.fail "replica never converged";
                  match Client.next_delta ~timeout_s:10. sub with
                  | Some d ->
                    if d.Client.d_resync then saw_resync := true;
                    apply d;
                    catch_up ()
                  | None -> Alcotest.fail "stream closed while catching up"
                end
              in
              catch_up ();
              check "recovery went through a resync frame" true !saw_resync;
              check "deltas were streamed" true
                (counter server "server.deltas" > 0))))

let suite =
  [
    Alcotest.test_case "server: wire round-trip and knobs" `Quick test_roundtrip;
    Alcotest.test_case "server: errors over the wire" `Quick test_errors_over_wire;
    Alcotest.test_case "server: session isolation" `Quick test_session_isolation;
    Alcotest.test_case "server: deadline degradation" `Quick test_deadline_degradation;
    Alcotest.test_case "server: admission control" `Quick test_admission_control;
    Alcotest.test_case "server: 16-client soak" `Quick test_soak;
    Alcotest.test_case "server: graceful drain" `Quick test_graceful_drain;
    Alcotest.test_case "server: drain rejects retriably" `Quick
      test_drain_rejects_retriably;
    Alcotest.test_case "server: trace echo" `Quick test_trace_echo;
    Alcotest.test_case "server: EXPLAIN wire parity" `Quick
      test_explain_wire_parity;
    Alcotest.test_case "server: METRICS wire op" `Quick test_metrics_op;
    Alcotest.test_case "server: slow-query log" `Quick test_slowlog;
    Alcotest.test_case "server: metrics HTTP listener" `Quick test_metrics_http;
    Alcotest.test_case "server: metrics HTTP serves concurrent scrapes" `Quick
      test_metrics_http_concurrent;
    Alcotest.test_case "server: REFINE over the wire" `Quick test_refine_wire;
    Alcotest.test_case "server: REFINE after another connection's DML" `Quick
      test_refine_after_other_dml;
    Alcotest.test_case "server: DML over the wire" `Quick test_dml_wire;
    Alcotest.test_case "server: SUBSCRIBE delta stream" `Quick
      test_subscribe_stream;
  ]

open Pref_sql

type config = {
  host : string;
  port : int;
  max_connections : int;
  max_inflight : int;
  executors : int;
  session_config : Pref_bmo.Engine.config;
}

let default_executors = max 1 (min 16 (Domain.recommended_domain_count ()))

let default_config =
  {
    host = "127.0.0.1";
    port = 5877;
    max_connections = 64;
    max_inflight = 2 * default_executors;
    executors = default_executors;
    (* the wire rejects error-severity queries when an analyzer is
       installed (Pref_analysis.Install.install, done by bin/prefserve) *)
    session_config = { Pref_bmo.Engine.default with check = true };
  }

let g_inflight = Pref_obs.Metrics.gauge "server.inflight"
let g_queue = Pref_obs.Metrics.gauge "server.queue_depth"
let g_subs = Pref_obs.Metrics.gauge "server.subscriptions"

(* One continuous query (SUBSCRIBE): the maintained BMO state plus a
   bounded queue of encoded-but-unsent DELTA frames. DML executors push
   under [sub_m]; the subscriber's own connection thread drains and
   writes. When the queue overflows the slow consumer loses the backlog:
   the queue is cleared, [sub_overflow] set, and the drain loop answers
   with one full-snapshot resync frame instead. *)
type subscriber = {
  sub_fd : Unix.file_descr;
  sub_table : string;
  sub_trace : Protocol.trace option;
  sub_m : Mutex.t;
  sub_c : Condition.t;
  sub_queue : Protocol.response Queue.t;
  mutable sub_overflow : bool;
  mutable sub_closed : bool;
  sub_inc : Pref_bmo.Incremental.t;
}

let max_sub_queue = 64

type t = {
  cfg : config;
  fs : Frame_server.t;
  registry : Translate.registry;
  mutable env : Exec.env;  (* authoritative tables, under [env_m] *)
  env_m : Mutex.t;
  env_v : int Atomic.t;  (* bumped by every DML write-back *)
  (* executor state, all under [m] *)
  m : Mutex.t;
  nonempty : Condition.t;  (* a job was queued, or executors must stop *)
  queue : (unit -> unit) Queue.t;
  mutable queued : int;
  mutable running : int;
  mutable exec_stop : bool;
  mutable workers : unit Domain.t array;
  (* live subscriptions; [subs_closed] once the drain ended them *)
  subs_m : Mutex.t;
  mutable subs : subscriber list;
  mutable subs_closed : bool;
  c_queries : Frame_server.counter;
  c_busy : Frame_server.counter;
  c_drain_rej : Frame_server.counter;
  c_degraded : Frame_server.counter;
  c_deadline : Frame_server.counter;
  c_truncated : Frame_server.counter;
  c_errors : Frame_server.counter;
  c_deltas : Frame_server.counter;
  c_resyncs : Frame_server.counter;
}

let port t = Frame_server.port t.fs
let bump = Frame_server.bump

(* ------------------------------------------------------------------ *)
(* Executor domains                                                    *)

let sync_gauges t =
  (* called with [t.m] held *)
  Pref_obs.Metrics.set g_queue (float_of_int t.queued);
  Pref_obs.Metrics.set g_inflight (float_of_int (t.queued + t.running))

let worker t () =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.exec_stop do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.m
    else begin
      let job = Queue.pop t.queue in
      t.queued <- t.queued - 1;
      t.running <- t.running + 1;
      sync_gauges t;
      Mutex.unlock t.m;
      (try job () with _ -> ());
      Mutex.lock t.m;
      t.running <- t.running - 1;
      sync_gauges t;
      Mutex.unlock t.m;
      loop ()
    end
  in
  loop ()

let stop_executors t =
  Mutex.protect t.m (fun () ->
      t.exec_stop <- true;
      Condition.broadcast t.nonempty);
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let submit t job =
  Mutex.protect t.m (fun () ->
      if Frame_server.draining t.fs then Error `Draining
      else if t.queued + t.running >= t.cfg.max_inflight then Error `Busy
      else begin
        Queue.push job t.queue;
        t.queued <- t.queued + 1;
        sync_gauges t;
        Condition.signal t.nonempty;
        Ok ()
      end)

(* Run [f] on an executor domain and block the connection thread until
   it returns — requests on one connection are strictly serial. [f]'s
   exception is re-raised here. An admission rejection is [Error] with
   the retriable ERR to answer. Connection threads all share one runtime
   lock, so everything heavy, encoding large results included, runs in
   [f]. *)
let on_executor t ?trace f =
  let done_m = Mutex.create () and done_c = Condition.create () in
  let outcome = ref None in
  let job () =
    let r = try Ok (f ()) with e -> Error e in
    Mutex.protect done_m (fun () ->
        outcome := Some r;
        Condition.signal done_c)
  in
  let reject counter kind message =
    bump counter;
    Error (Protocol.Err { kind; retriable = true; message; trace })
  in
  match submit t job with
  | Error `Busy -> reject t.c_busy "busy" "server at max in-flight queries; retry"
  | Error `Draining ->
    reject t.c_drain_rej "draining" "server is draining; retry elsewhere"
  | Ok () -> (
    Mutex.lock done_m;
    while !outcome = None do
      Condition.wait done_c done_m
    done;
    Mutex.unlock done_m;
    match !outcome with
    | Some (Ok v) -> Ok v
    | Some (Error e) -> raise e
    | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Per-connection state. Sessions are per-connection, the environment
   is not: [t.env] is authoritative; DML rewrites it under [env_m] and
   bumps [env_v], and every connection re-snapshots its session
   environment when it notices the version moved ([refresh_env] — which
   also drops the session's revision seed, computed against the old
   tables). *)

type conn = {
  fd : Unix.file_descr;
  session : Pref_engine.Session.t;
  last_v : int ref;  (* the environment version the session last saw *)
}

let refresh_env t c =
  let v = Atomic.get t.env_v in
  if v <> !(c.last_v) then begin
    c.last_v := v;
    Pref_engine.Session.set_env c.session
      (Mutex.protect t.env_m (fun () -> t.env))
  end

let send c resp = Protocol.write_frame c.fd (Protocol.encode_response resp)

(* ------------------------------------------------------------------ *)
(* Subscriptions                                                       *)

let sync_subs_gauge t =
  (* called with [t.subs_m] held *)
  Pref_obs.Metrics.set g_subs (float_of_int (List.length t.subs))

let close_subscriber sub =
  Mutex.protect sub.sub_m (fun () ->
      sub.sub_closed <- true;
      Condition.broadcast sub.sub_c)

let unregister_subscriber t sub =
  Mutex.protect t.subs_m (fun () ->
      t.subs <- List.filter (fun s -> s != sub) t.subs;
      sync_subs_gauge t);
  close_subscriber sub

(* The drain hook: a subscriber's request never finishes on its own. A
   subscription set up after this point starts closed. *)
let close_subscriptions t =
  let subs =
    Mutex.protect t.subs_m (fun () ->
        t.subs_closed <- true;
        t.subs)
  in
  List.iter close_subscriber subs

(* Patch one subscriber's maintained BMO state with a DML event and queue
   the resulting DELTA frame. Called with [t.env_m] held, so deltas reach
   every subscriber in DML order. Overflowing the bounded queue drops the
   backlog and schedules a resync instead. *)
let notify_subscriber t sub op row =
  Mutex.lock sub.sub_m;
  if not sub.sub_closed then begin
    let delta =
      match op with
      | Protocol.Dml_insert ->
        Some (Pref_bmo.Incremental.insert_delta sub.sub_inc row)
      | Protocol.Dml_delete -> Pref_bmo.Incremental.delete_delta sub.sub_inc row
    in
    match delta with
    | Some { Pref_bmo.Incremental.added; removed }
      when added <> [] || removed <> [] ->
      let schema =
        Pref_relation.Relation.schema (Pref_bmo.Incremental.result sub.sub_inc)
      in
      if Queue.length sub.sub_queue >= max_sub_queue then begin
        Queue.clear sub.sub_queue;
        sub.sub_overflow <- true;
        bump t.c_resyncs
      end
      else
        Queue.push
          (Protocol.Delta
             {
               added = Pref_relation.Relation.make schema added;
               removed = Pref_relation.Relation.make schema removed;
               resync = false;
               trace = sub.sub_trace;
             })
          sub.sub_queue;
      Condition.signal sub.sub_c
    | _ -> ()
  end;
  Mutex.unlock sub.sub_m

(* The subscriber's connection thread: drain queued DELTA frames to the
   socket until the peer vanishes or the server closes the subscription.
   An overflow turns into one full-snapshot frame ([resync]) — the
   client discards its replica and starts over from it. *)
let stream_subscriber t sub =
  let next () =
    Mutex.lock sub.sub_m;
    let rec wait () =
      if sub.sub_closed then None
      else if sub.sub_overflow then begin
        sub.sub_overflow <- false;
        Queue.clear sub.sub_queue;
        let snap = Pref_bmo.Incremental.result sub.sub_inc in
        Some
          (Protocol.Delta
             {
               added = snap;
               removed =
                 Pref_relation.Relation.empty (Pref_relation.Relation.schema snap);
               resync = true;
               trace = sub.sub_trace;
             })
      end
      else
        match Queue.take_opt sub.sub_queue with
        | Some frame -> Some frame
        | None ->
          Condition.wait sub.sub_c sub.sub_m;
          wait ()
    in
    let r = wait () in
    Mutex.unlock sub.sub_m;
    r
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some frame ->
      Protocol.write_frame sub.sub_fd (Protocol.encode_response frame);
      bump t.c_deltas;
      loop ()
  in
  loop ()

let subscribe_shape_message =
  "SUBSCRIBE needs SELECT * FROM <table> PREFERRING ... (one table, no \
   WHERE / TOP / BUT ONLY / GROUP BY)"

let subscribable (q : Ast.query) =
  (match q.Ast.select with [ Ast.Star ] -> true | _ -> false)
  && q.Ast.where = None && q.Ast.top = None && q.Ast.but_only = []
  && q.Ast.grouping = []
  && match q.Ast.from with [ _ ] -> true | _ -> false

let subscribe t c trace sql =
  refresh_env t c;
  let setup () =
    (* build the maintained state and register under [env_m]: no DML can
       slip between the snapshot and the first queued delta *)
    Mutex.protect t.env_m (fun () ->
        let q = Parser.parse_query sql in
        if not (subscribable q) then raise (Exec.Error subscribe_shape_message);
        let table = String.lowercase_ascii (List.hd q.Ast.from) in
        let rel =
          match Exec.find_table t.env table with
          | Some rel -> rel
          | None -> raise (Exec.Unknown_table { name = table; hint = None })
        in
        let p =
          match Exec.full_preference ~registry:t.registry q with
          | Some p -> p
          | None -> raise (Exec.Error "SUBSCRIBE needs a PREFERRING clause")
        in
        let inc =
          Pref_bmo.Incremental.create
            (Pref_relation.Relation.schema rel)
            p
            (Pref_relation.Relation.rows rel)
        in
        let sub =
          {
            sub_fd = c.fd;
            sub_table = table;
            sub_trace = trace;
            sub_m = Mutex.create ();
            sub_c = Condition.create ();
            sub_queue = Queue.create ();
            sub_overflow = false;
            sub_closed = false;
            sub_inc = inc;
          }
        in
        Mutex.protect t.subs_m (fun () ->
            if t.subs_closed then sub.sub_closed <- true
            else begin
              t.subs <- sub :: t.subs;
              sync_subs_gauge t
            end);
        (sub, Pref_bmo.Incremental.result inc))
  in
  match on_executor t ?trace setup with
  | Error rejection -> Frame_server.Reply rejection
  | exception e ->
    bump t.c_queries;
    bump t.c_errors;
    Frame_server.Reply (Frame_server.error_response ?trace e)
  | Ok (sub, snapshot) ->
    bump t.c_queries;
    let unregister () = unregister_subscriber t sub in
    (try
       send c
         (Protocol.Rows
            {
              relation = snapshot;
              flags = Pref_bmo.Engine.complete;
              served = None;
              trace;
            })
     with e ->
       unregister ();
       raise e);
    Frame_server.Stream
      (fun () -> Fun.protect ~finally:unregister (fun () -> stream_subscriber t sub))

(* ------------------------------------------------------------------ *)
(* Single-row DML                                                      *)

(* Apply one insert/delete: refresh the session from the authoritative
   environment, run {!Pref_engine.Session.insert}/[delete] (table update
   + cache patch + revision-seed patch), write the environment back, and
   fan the event out to this table's subscribers — all under [env_m], so
   concurrent DML serializes and every subscriber sees events in the
   same order. *)
let apply_dml t c op table row_csv =
  Mutex.protect t.env_m (fun () ->
      let v = Atomic.get t.env_v in
      if v <> !(c.last_v) then begin
        c.last_v := v;
        Pref_engine.Session.set_env c.session t.env
      end;
      let table = String.lowercase_ascii table in
      let rel =
        match Exec.find_table t.env table with
        | Some rel -> rel
        | None -> raise (Exec.Unknown_table { name = table; hint = None })
      in
      let row =
        match
          Protocol.decode_rows (Pref_relation.Relation.schema rel) [ row_csv ]
        with
        | Ok [ row ] -> row
        | Ok _ -> assert false
        | Error msg -> raise (Exec.Error msg)
      in
      let outcome =
        match op with
        | Protocol.Dml_insert ->
          Some ("inserted into", Pref_engine.Session.insert c.session table row)
        | Protocol.Dml_delete ->
          Option.map
            (fun patched -> ("deleted from", patched))
            (Pref_engine.Session.delete c.session table row)
      in
      if outcome <> None then begin
        t.env <- Pref_engine.Session.env c.session;
        let v' = Atomic.get t.env_v + 1 in
        Atomic.set t.env_v v';
        c.last_v := v';
        let subs = Mutex.protect t.subs_m (fun () -> t.subs) in
        List.iter
          (fun sub ->
            if String.equal sub.sub_table table then
              notify_subscriber t sub op row)
          subs
      end;
      (outcome, table))

let dml t c trace op table row_csv =
  match on_executor t ?trace (fun () -> apply_dml t c op table row_csv) with
  | Error rejection -> Frame_server.Reply rejection
  | exception e ->
    bump t.c_errors;
    Frame_server.Reply (Frame_server.error_response ?trace e)
  | Ok (Some (verb, patched), table) ->
    Frame_server.Reply
      (Protocol.Done
         (Printf.sprintf "%s %s (%d cached result%s patched)" verb table
            patched
            (if patched = 1 then "" else "s")))
  | Ok (None, table) ->
    Frame_server.Reply
      (Protocol.Err
         {
           kind = "exec";
           retriable = false;
           message = Printf.sprintf "no matching row in %s" table;
           trace;
         })

(* ------------------------------------------------------------------ *)
(* QUERY / EXPLAIN / REFINE: evaluated, encoded and written on an
   executor domain                                                     *)

(* Span attributes stamping the server-side trace with the wire trace
   context, so a client can stitch its trace to the span dumps in the
   slow-query log. *)
let trace_attrs session trace =
  (match trace with
  | Some tr ->
    [
      ("trace", tr.Protocol.trace_id);
      ("parent_span", tr.Protocol.span_id);
    ]
  | None -> [])
  @ [ ("session", string_of_int (Pref_engine.Session.id session)) ]

(* [encode deadline] runs on an executor; the deadline is taken at
   admission, so queue wait draws down the same budget as evaluation. *)
let evaluate t c trace span encode =
  refresh_env t c;
  let deadline =
    Pref_bmo.Engine.deadline_of (Pref_engine.Session.config c.session)
  in
  let run () =
    Protocol.write_frame c.fd
      (Pref_obs.Span.with_span span ~attrs:(trace_attrs c.session trace)
         (fun () -> encode deadline))
  in
  match on_executor t ?trace run with
  | Ok () -> Frame_server.Sent
  | Error rejection -> Frame_server.Reply rejection

(* Count one statement answered with rows, and encode the answer. *)
let rows t trace deadline run =
  bump t.c_queries;
  match run () with
  | (r : Exec.result) ->
    let flags = r.Exec.flags in
    if flags.Pref_bmo.Engine.partial then bump t.c_degraded;
    if Pref_bmo.Engine.expired deadline then bump t.c_deadline;
    if flags.Pref_bmo.Engine.truncated then bump t.c_truncated;
    Protocol.encode_response
      (Protocol.Rows { relation = r.Exec.relation; flags; served = None; trace })
  | exception e ->
    bump t.c_errors;
    Protocol.encode_response (Frame_server.error_response ?trace e)

let query t c trace sql =
  evaluate t c trace "server.query" (fun deadline ->
      rows t trace deadline
        (fun () -> Pref_engine.Session.run_within c.session ~deadline sql))

let refine t c trace term =
  evaluate t c trace "server.refine" (fun deadline ->
      rows t trace deadline
        (fun () ->
          (Pref_engine.Session.refine_within c.session ~deadline term)
            .Pref_engine.Revise.o_result))

let explain t c ~analyze ~json trace sql =
  evaluate t c trace "server.explain" (fun deadline ->
      Protocol.encode_response
        (match
           Pref_engine.Session.explain_within c.session ~analyze ~deadline sql
         with
        | plan ->
          Protocol.Explain_resp
            (if json then
               Pref_obs.Json.to_string (Pref_bmo.Explain.Plan.to_json plan)
             else String.concat "\n" (Pref_bmo.Explain.Plan.to_text plan))
        | exception e -> Frame_server.error_response ?trace e))

(* ------------------------------------------------------------------ *)
(* STATS                                                               *)

let counters t =
  let queued, running = Mutex.protect t.m (fun () -> (t.queued, t.running)) in
  Frame_server.counters t.fs
  @ [
      ("server.queue_depth", queued);
      ("server.running", running);
      ("server.inflight", queued + running);
      ( "server.subscriptions",
        Mutex.protect t.subs_m (fun () -> List.length t.subs) );
      ("server.slow_queries", Pref_engine.Slowlog.count ());
    ]

(* Histogram summaries for the extended STATS response: count, sum and
   interpolated p50/p90/p99 per non-empty histogram. Only meaningful
   while telemetry is on (otherwise the registry stays at zero). *)
let histogram_lines () =
  List.concat_map
    (fun (name, s) ->
      [
        (name ^ ".count", string_of_int s.Pref_obs.Metrics.s_count);
        (name ^ ".sum", Printf.sprintf "%.6g" s.Pref_obs.Metrics.s_sum);
        (name ^ ".p50", Printf.sprintf "%.6g" s.Pref_obs.Metrics.s_p50);
        (name ^ ".p90", Printf.sprintf "%.6g" s.Pref_obs.Metrics.s_p90);
        (name ^ ".p99", Printf.sprintf "%.6g" s.Pref_obs.Metrics.s_p99);
      ])
    (Pref_obs.Metrics.summaries ())
  |> List.map (fun (k, v) -> ("hist." ^ k, v))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let backend t =
  {
    Frame_server.open_conn =
      (fun fd ->
        {
          fd;
          session =
            Pref_engine.Session.create ~registry:t.registry
              ~config:t.cfg.session_config ~env:t.env ();
          last_v = ref (Atomic.get t.env_v);
        });
    close_conn = ignore;
    query = query t;
    explain = explain t;
    prepare = (fun c ~name sql -> Pref_engine.Session.prepare c.session ~name sql);
    refine = refine t;
    dml = dml t;
    subscribe = subscribe t;
    set = (fun c ~key ~value -> Pref_engine.Session.set c.session ~key ~value);
    stats =
      (fun c ->
        List.map (fun (k, v) -> (k, string_of_int v)) (counters t)
        @ Pref_engine.Session.stats_lines c.session
        @ histogram_lines ());
  }

let start ?(config = default_config) ?(registry = Translate.default_registry)
    ~env () =
  let fs =
    Frame_server.bind ~name:"server" ~host:config.host ~port:config.port
      ~max_connections:config.max_connections ()
  in
  let counter = Frame_server.counter fs in
  let t =
    {
      cfg = config;
      fs;
      registry;
      env;
      env_m = Mutex.create ();
      env_v = Atomic.make 0;
      m = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      queued = 0;
      running = 0;
      exec_stop = false;
      workers = [||];
      subs_m = Mutex.create ();
      subs = [];
      subs_closed = false;
      c_queries = counter "queries";
      c_busy = counter "busy_rejected";
      c_drain_rej = counter "draining_rejected";
      c_degraded = counter "degraded";
      c_deadline = counter "deadline_exceeded";
      c_truncated = counter "truncated";
      c_errors = counter "errors";
      c_deltas = counter "deltas";
      c_resyncs = counter "subscription_resyncs";
    }
  in
  t.workers <- Array.init (max 1 config.executors) (fun _ -> Domain.spawn (worker t));
  Frame_server.serve fs
    ~on_drain:(fun () -> close_subscriptions t)
    ~on_stop:(fun () -> stop_executors t)
    (Frame_server.frames fs (backend t));
  t

let stop t = Frame_server.stop t.fs
let request_stop t = Frame_server.request_stop t.fs
let wait t = Frame_server.wait t.fs

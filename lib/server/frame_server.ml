open Pref_sql

type counter = { key : string; n : int Atomic.t; metric : Pref_obs.Metrics.counter }

let make_counter key =
  { key; n = Atomic.make 0; metric = Pref_obs.Metrics.counter key }

let bump c =
  Atomic.incr c.n;
  Pref_obs.Metrics.incr c.metric

(* the connection limit and its accounting; a listener without one
   (the metrics endpoint) admits every connection and counts nothing *)
type admission = {
  max_connections : int;
  accepted : counter;
  rejected : counter;
  g_conns : Pref_obs.Metrics.gauge;
}

type t = {
  name : string;
  listen_fd : Unix.file_descr;
  bound_port : int;
  admission : admission option;
  draining : bool Atomic.t;
  stop_requested : bool Atomic.t;
  (* drain lifecycle, under [m] *)
  m : Mutex.t;
  mutable drain_started : bool;
  mutable stopped : bool;
  stopped_c : Condition.t;
  mutable accept_thread : Thread.t option;
  mutable on_drain : unit -> unit;
  mutable on_stop : unit -> unit;
  (* live connections, under [conns_m] *)
  conns_m : Mutex.t;
  mutable conns : (int * Unix.file_descr) list;  (* keyed by connection id *)
  mutable conn_threads : (int * Thread.t) list;
  mutable streams : Unix.file_descr list;  (* connections now streaming *)
  next_id : int Atomic.t;
  mutable table : counter list;  (* newest first *)
}

let port t = t.bound_port
let draining t = Atomic.get t.draining

let counter t name =
  let c = make_counter (t.name ^ "." ^ name) in
  t.table <- c :: t.table;
  c

let active t = Mutex.protect t.conns_m (fun () -> List.length t.conns)

let counters t =
  let get c = (c.key, Atomic.get c.n) in
  (match t.admission with
  | Some a ->
    [ get a.accepted; (t.name ^ ".active_connections", active t); get a.rejected ]
  | None -> [])
  @ List.rev_map get t.table
  @ [ (t.name ^ ".draining", if draining t then 1 else 0) ]

let bind ?max_connections ~name ~host ~port () =
  (* a peer vanishing mid-response must surface as EPIPE, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let admission =
    Option.map
      (fun max_connections ->
        {
          max_connections;
          accepted = make_counter (name ^ ".accepted");
          rejected = make_counter (name ^ ".connections_rejected");
          g_conns = Pref_obs.Metrics.gauge (name ^ ".connections");
        })
      max_connections
  in
  {
    name;
    listen_fd;
    bound_port;
    admission;
    draining = Atomic.make false;
    stop_requested = Atomic.make false;
    m = Mutex.create ();
    drain_started = false;
    stopped = false;
    stopped_c = Condition.create ();
    accept_thread = None;
    on_drain = ignore;
    on_stop = ignore;
    conns_m = Mutex.create ();
    conns = [];
    conn_threads = [];
    streams = [];
    next_id = Atomic.make 0;
    table = [];
  }

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)

let set_conns t conns =
  (* called with [t.conns_m] held *)
  t.conns <- conns;
  Option.iter
    (fun a -> Pref_obs.Metrics.set a.g_conns (float_of_int (List.length conns)))
    t.admission

let spawn_connection t handler fd =
  (* register the connection before spawning, so the thread's cleanup can
     never race its own registration *)
  let id = Atomic.fetch_and_add t.next_id 1 in
  Mutex.protect t.conns_m (fun () -> set_conns t ((id, fd) :: t.conns));
  let thread =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect t.conns_m (fun () ->
                set_conns t (List.remove_assoc id t.conns));
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
            try Unix.close fd with _ -> ())
          (fun () -> try handler fd with _ -> ()))
      ()
  in
  Mutex.protect t.conns_m (fun () ->
      t.conn_threads <- (id, thread) :: t.conn_threads)

let accept_loop t handler () =
  Unix.setsockopt_float t.listen_fd Unix.SO_RCVTIMEO 0.25;
  let rec loop () =
    if draining t || Atomic.get t.stop_requested then ()
    else
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        loop ()
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        let admit =
          match t.admission with
          | None -> true
          | Some a ->
            bump a.accepted;
            let ok = active t < a.max_connections in
            if not ok then bump a.rejected;
            ok
        in
        if admit then spawn_connection t handler fd
        else begin
          (try
             Protocol.write_frame fd
               (Protocol.encode_response
                  (Protocol.Err
                     {
                       kind = "busy";
                       retriable = true;
                       message = t.name ^ " at max connections; retry";
                       trace = None;
                     }))
           with _ -> ());
          try Unix.close fd with _ -> ()
        end;
        loop ()
  in
  loop ()

let serve ?(on_drain = ignore) ?(on_stop = ignore) t handler =
  t.on_drain <- on_drain;
  t.on_stop <- on_stop;
  t.accept_thread <- Some (Thread.create (accept_loop t handler) ())

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)

let stop t =
  let first =
    Mutex.protect t.m (fun () ->
        if t.drain_started then false
        else begin
          t.drain_started <- true;
          Atomic.set t.draining true;
          true
        end)
  in
  if not first then
    (* someone else is (or finished) draining: wait it out *)
    Mutex.protect t.m (fun () ->
        while not t.stopped do
          Condition.wait t.stopped_c t.m
        done)
  else begin
    (* 1. stop accepting; the accept loop polls [draining] on its timeout *)
    Option.iter Thread.join t.accept_thread;
    t.accept_thread <- None;
    (try Unix.close t.listen_fd with _ -> ());
    (* 2. end the streams waiting for events; every other connection
       answers the request it has read and leaves on its own, as the
       frame loop reads nothing more once the listener drains *)
    t.on_drain ();
    while
      Mutex.protect t.conns_m (fun () ->
          List.length t.conns > List.length t.streams)
    do
      Thread.delay 0.002
    done;
    (* 3. what is left are streams, perhaps blocked writing to a peer that
       stopped reading: shutting the socket down breaks the write. Under
       [conns_m], no stream socket is closed (and its number reused)
       underneath us. *)
    Mutex.protect t.conns_m (fun () ->
        List.iter
          (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
          t.streams);
    let threads = Mutex.protect t.conns_m (fun () -> t.conn_threads) in
    List.iter (fun (_, th) -> Thread.join th) threads;
    Mutex.protect t.conns_m (fun () -> t.conn_threads <- []);
    t.on_stop ();
    Mutex.protect t.m (fun () ->
        t.stopped <- true;
        Condition.broadcast t.stopped_c)
  end

let request_stop t = Atomic.set t.stop_requested true

let wait t =
  let rec poll () =
    if Mutex.protect t.m (fun () -> t.stopped) then ()
    else if Atomic.get t.stop_requested then stop t
    else begin
      Thread.delay 0.1;
      poll ()
    end
  in
  poll ()

(* ------------------------------------------------------------------ *)
(* The wire-protocol loop                                              *)

type reply = Reply of Protocol.response | Sent | Stream of (unit -> unit)

type 'c backend = {
  open_conn : Unix.file_descr -> 'c;
  close_conn : 'c -> unit;
  query : 'c -> Protocol.trace option -> string -> reply;
  explain :
    'c -> analyze:bool -> json:bool -> Protocol.trace option -> string -> reply;
  prepare : 'c -> name:string -> string -> unit;
  refine : 'c -> Protocol.trace option -> string -> reply;
  dml :
    'c -> Protocol.trace option -> Protocol.dml_op -> string -> string -> reply;
  subscribe : 'c -> Protocol.trace option -> string -> reply;
  set : 'c -> key:string -> value:string -> (string, string) result;
  stats : 'c -> (string * string) list;
}

let error_response ?trace e =
  let err kind message = Protocol.Err { kind; retriable = false; message; trace } in
  match e with
  | Parser.Error (msg, pos) ->
    err "parse" (Printf.sprintf "syntax error at offset %d: %s" pos msg)
  | Translate.Error msg -> err "translate" msg
  | Exec.Unknown_table { name; hint } ->
    err "exec" (Exec.unknown_table_message ~name ~hint)
  | Exec.Error msg -> err "exec" msg
  | Exec.Rejected findings ->
    err "check"
      (String.concat "\n"
         ("rejected by static analysis:"
         :: List.map
              (fun f ->
                Printf.sprintf "  %s[%s] %s: %s" f.Exec.check_severity
                  f.Exec.check_code f.Exec.check_path f.Exec.check_message)
              findings))
  | Preferences.Pref.Ill_formed { code; message; _ } ->
    err "pref" (Printf.sprintf "[%s] %s" code message)
  | Pref_bmo.Pool.Job_error { exn; _ } -> err "exec" (Printexc.to_string exn)
  | e -> err "internal" (Printexc.to_string e)

let answer b c request =
  let guard trace f = try f () with e -> Reply (error_response ?trace e) in
  match request with
  | Error message ->
    Reply (Protocol.Err { kind = "proto"; retriable = false; message; trace = None })
  | Ok Protocol.Ping -> Reply Protocol.Pong
  | Ok (Protocol.Metrics { json }) ->
    (* rendering the registry is cheap: answer on the connection thread *)
    Reply
      (Protocol.Metrics_resp
         (if json then Pref_obs.Json.to_string (Pref_obs.Export.to_json ())
          else Pref_obs.Export.prometheus ()))
  | Ok (Protocol.Query { sql; trace }) -> (
    guard trace @@ fun () ->
    (* a QUERY whose statement starts with EXPLAIN answers with the plan
       (text rendering) instead of rows *)
    match Parser.explain_prefix sql with
    | Some (analyze, rest) -> b.explain c ~analyze ~json:false trace rest
    | None -> b.query c trace sql)
  | Ok (Protocol.Explain { sql; analyze; json; trace }) ->
    guard trace (fun () -> b.explain c ~analyze ~json trace sql)
  | Ok (Protocol.Prepare { name; sql; trace }) ->
    guard trace (fun () ->
        b.prepare c ~name sql;
        Reply (Protocol.Done ("prepared " ^ name)))
  | Ok (Protocol.Refine { term; trace }) -> guard trace (fun () -> b.refine c trace term)
  | Ok (Protocol.Dml { op; table; row; trace }) ->
    guard trace (fun () -> b.dml c trace op table row)
  | Ok (Protocol.Subscribe { sql; trace }) ->
    (* on success the connection is a one-way stream from here on *)
    guard trace (fun () -> b.subscribe c trace sql)
  | Ok (Protocol.Set (key, value)) -> (
    match b.set c ~key ~value with
    | Ok line -> Reply (Protocol.Done line)
    | Error message ->
      Reply (Protocol.Err { kind = "set"; retriable = false; message; trace = None }))
  | Ok Protocol.Stats -> Reply (Protocol.Stats_resp (b.stats c))

exception Drain

(* A stream is the connection's last act: while it runs the drain does
   not wait for it, and cuts it if it does not end by itself. *)
let stream t fd run =
  Mutex.protect t.conns_m (fun () -> t.streams <- fd :: t.streams);
  Fun.protect run ~finally:(fun () ->
      Mutex.protect t.conns_m (fun () ->
          t.streams <- List.filter (fun s -> s <> fd) t.streams))

let frames t b fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
  let c = b.open_conn fd in
  (* an idle connection leaves on the next read-timeout tick of a drain *)
  let on_wait () = if draining t then raise Drain in
  let rec loop () =
    (* once the listener drains, answer what was read but read no more *)
    if not (draining t) then
      match Protocol.read_frame ~on_wait fd with
      | None -> ()
      | Some payload -> (
        match answer b c (Protocol.parse_request payload) with
        | Reply resp ->
          Protocol.write_frame fd (Protocol.encode_response resp);
          loop ()
        | Sent -> loop ()
        | Stream run -> stream t fd run)
  in
  Fun.protect
    ~finally:(fun () -> b.close_conn c)
    (fun () ->
      try loop () with
      | Drain | Protocol.Framing_error _ | Unix.Unix_error _ | Sys_error _ -> ())

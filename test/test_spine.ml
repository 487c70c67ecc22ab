(* The frame-serving spine, tested through both front-ends that run on
   it: the same cases against an in-process Server and an in-process
   Router over one Server backend. Drain with a request in flight or
   with a subscriber that stopped reading, the connection limit, and a
   malformed request on a live connection. *)

open Pref_relation
open Pref_server
module Router = Pref_router.Router
module Synthetic = Pref_workload.Synthetic

let check = Alcotest.(check bool)
let host = "127.0.0.1"

(* big enough that a naive O(n^2) BMO visibly occupies an executor *)
let big = Synthetic.relation ~seed:8 ~n:2500 ~dims:3 Synthetic.Anti_correlated
let slow_query = "SELECT * FROM big PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2)"

let feed =
  Relation.make
    (Schema.make [ ("k", Value.TInt); ("pad", Value.TStr) ])
    [ Tuple.make [ Value.Int 0; Value.Str "a" ] ]

type front = {
  port : int;
  prefix : string;  (* the STATS key prefix: server / router *)
  counters : unit -> (string * int) list;
  stop : unit -> unit;
  running : unit -> int;  (* queries running on the evaluating server *)
}

let counter front name =
  match List.assoc_opt (front.prefix ^ "." ^ name) (front.counters ()) with
  | Some v -> v
  | None -> Alcotest.failf "no counter %s.%s" front.prefix name

let start_server ~max_connections =
  Server.start
    ~config:
      { Server.default_config with host; port = 0; max_connections; executors = 1 }
    ~env:[ ("big", big); ("feed", feed) ] ()

let running server =
  Option.value ~default:0 (List.assoc_opt "server.running" (Server.counters server))

let with_server ~max_connections f =
  let s = start_server ~max_connections in
  Fun.protect ~finally:(fun () -> Server.stop s) @@ fun () ->
  f
    {
      port = Server.port s;
      prefix = "server";
      counters = (fun () -> Server.counters s);
      stop = (fun () -> Server.stop s);
      running = (fun () -> running s);
    }

let with_router ~max_connections f =
  let s = start_server ~max_connections:64 in
  Fun.protect ~finally:(fun () -> Server.stop s) @@ fun () ->
  let r =
    Router.start
      ~config:
        {
          Router.default_config with
          host;
          port = 0;
          max_connections;
          backends = [ { Router.bhost = host; bport = Server.port s } ];
        }
      ()
  in
  Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
  f
    {
      port = Router.port r;
      prefix = "router";
      counters = (fun () -> Router.counters r);
      stop = (fun () -> Router.stop r);
      running = (fun () -> running s);
    }

(* a raw socket, for frames no client would send and for reading the
   listener's own answers *)
let raw_connect front =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, front.port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  fd

let read_response fd =
  match Protocol.read_frame fd with
  | None -> None
  | Some payload -> (
    match Protocol.parse_response payload with
    | Ok r -> Some r
    | Error e -> Alcotest.failf "unparsable response: %s" e)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)

let drain_with_request_in_flight with_front =
  with_front ~max_connections:64 @@ fun front ->
  let answer = ref None in
  let c = Client.connect ~host ~port:front.port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun (key, value) ->
      match Client.set c ~key ~value with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ ("algorithm", "naive"); ("cache", "off") ];
  let asker =
    Thread.create
      (fun () ->
        answer :=
          Some
            (try Client.query c slow_query with e -> Error (Printexc.to_string e)))
      ()
  in
  while front.running () < 1 && !answer = None do
    Thread.delay 0.001
  done;
  check "query seen running before the drain" true (!answer = None);
  (* the query is evaluating: drain now *)
  front.stop ();
  Thread.join asker;
  (match Option.get !answer with
  | Ok (rel, flags) ->
    check "in-flight query answered in full" true
      ((not flags.Pref_bmo.Engine.partial) && Relation.cardinality rel > 0)
  | Error e -> Alcotest.failf "in-flight query lost in the drain: %s" e);
  check "drain leaves no connections" true (counter front "active_connections" = 0);
  check "draining reported" true (counter front "draining" = 1);
  check "connection closed after the drain" true
    (try not (Client.ping c) with _ -> true);
  (* stop is idempotent *)
  front.stop ()

(* A subscriber that never reads: once its socket buffers are full the
   stream blocks writing deltas. The drain must cut it, not wait for it. *)
let drain_with_stalled_subscriber with_front =
  with_front ~max_connections:64 @@ fun front ->
  let sub = raw_connect front in
  Fun.protect ~finally:(fun () -> try Unix.close sub with _ -> ()) @@ fun () ->
  Protocol.write_frame sub
    (Protocol.encode_request
       (Protocol.Subscribe
          { sql = "SELECT * FROM feed PREFERRING HIGHEST(k)"; trace = None }));
  (match read_response sub with
  | Some (Protocol.Rows _) -> ()
  | _ -> Alcotest.fail "expected the subscription snapshot");
  (* every insert is a new best row: ~128 KiB of DELTA per insert, 8 MiB
     in all, more than the socket buffers between stream and subscriber
     hold *)
  let writer = Client.connect ~host ~port:front.port () in
  let pad = String.make 65536 'x' in
  for k = 1 to 64 do
    match Client.insert writer ~table:"feed" (Printf.sprintf "%d,%s" k pad) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  Client.close writer;
  let stopped = Atomic.make false in
  let stopper = Thread.create (fun () -> front.stop (); Atomic.set stopped true) () in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let cut = Atomic.get stopped in
  (* unblock a hung drain so the suite goes on *)
  if not cut then Unix.shutdown sub Unix.SHUTDOWN_ALL;
  Thread.join stopper;
  check "drain finishes with a subscriber that never reads" true cut;
  check "drain leaves no connections" true (counter front "active_connections" = 0)

let connection_limit with_front =
  with_front ~max_connections:1 @@ fun front ->
  let first = Client.connect ~host ~port:front.port () in
  check "first connection served" true (Client.ping first);
  let fd = raw_connect front in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () ->
      (match read_response fd with
      | Some (Protocol.Err { kind = "busy"; retriable = true; message; _ }) ->
        check "busy message names the limit" true
          (contains message "max connections")
      | _ -> Alcotest.fail "expected a retriable ERR busy");
      check "then a close" true (read_response fd = None));
  check "rejection counted" true (counter front "connections_rejected" = 1);
  check "first connection still served" true (Client.ping first);
  Client.close first

let unknown_verb_keeps_connection with_front =
  with_front ~max_connections:64 @@ fun front ->
  let fd = raw_connect front in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Protocol.write_frame fd "FROBNICATE\nx";
  (match read_response fd with
  | Some (Protocol.Err { kind = "proto"; retriable = false; message; _ }) ->
    List.iter
      (fun v -> check ("error lists " ^ v) true (contains message v))
      (Protocol.verbs ())
  | _ -> Alcotest.fail "expected ERR proto");
  Protocol.write_frame fd (Protocol.encode_request Protocol.Ping);
  check "connection still usable" true (read_response fd = Some Protocol.Pong)

let cases =
  [
    ("graceful drain with a request in flight", drain_with_request_in_flight);
    ("drain cuts a subscriber that never reads", drain_with_stalled_subscriber);
    ("connection limit answers busy and closes", connection_limit);
    ("unknown verb is ERR proto, connection lives", unknown_verb_keeps_connection);
  ]

let suite =
  List.concat_map
    (fun (front, with_front) ->
      List.map
        (fun (name, case) ->
          Alcotest.test_case (front ^ ": " ^ name) `Quick (fun () -> case with_front))
        cases)
    [ ("server", with_server); ("router", with_router) ]

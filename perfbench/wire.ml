(* A raw wire client. It speaks [Pref_server.Protocol] frames directly so
   a timed request covers exactly "client send to last frame read":
   decoding the reply happens afterwards, outside the timed window. One
   request is in flight per connection, as in every client of the repo. *)

module P = Pref_server.Protocol

type conn = { fd : Unix.file_descr }

exception Lost of string
(** No complete reply: the connection closed, broke, or timed out. *)

let connect port =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* reads tick every 250 ms so a lost reply times out *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
  { fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let read ?(timeout_s = 170.) c =
  let t0 = Unix.gettimeofday () in
  let on_wait () =
    if Unix.gettimeofday () -. t0 > timeout_s then raise (Lost "timeout")
  in
  match P.read_frame ~on_wait c.fd with
  | Some payload -> payload
  | None -> raise (Lost "connection closed")
  | exception P.Framing_error m -> raise (Lost ("framing: " ^ m))
  | exception Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))

(* Send one encoded request; return the raw reply payload. *)
let call ?timeout_s c payload =
  (try P.write_frame c.fd payload
   with Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e)));
  read ?timeout_s c

(* [call], retrying retriable rejections ([busy], [draining]) the way
   [Client.query_retry] does; returns the final payload, its latency in
   ms (the successful attempt only) and the number of retries. *)
let call_retry c payload =
  let rec go retries =
    let t0 = Spans.now_ns () in
    let reply = call c payload in
    let ms = Spans.ms_since t0 in
    match P.parse_response reply with
    | Ok (P.Err { retriable = true; _ }) when retries < 50 ->
      Unix.sleepf 0.002;
      go (retries + 1)
    | _ -> (reply, ms, retries)
  in
  go 0

let request c req =
  match P.parse_response (call c (P.encode_request req)) with
  | Ok r -> r
  | Error m -> raise (Lost ("unparsable reply: " ^ m))

let ping port =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () ->
      match request c P.Ping with P.Pong -> () | _ -> raise (Lost "no PONG"))

let stats port =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () ->
      match request c P.Stats with
      | P.Stats_resp kv -> kv
      | _ -> raise (Lost "no STATS"))

let stat kv key =
  match List.assoc_opt key kv with
  | Some v -> (try int_of_string v with Failure _ -> 0)
  | None -> 0

let query sql = P.encode_request (P.Query { sql; trace = None })
let refine term = P.encode_request (P.Refine { term; trace = None })

let dml op ~table row =
  P.encode_request (P.Dml { op; table; row; trace = None })

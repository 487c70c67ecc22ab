(* Benchmark-side instrumentation: spans kept in memory, sample sets, and
   the JSON the benchmark prints.

   Spans are recorded only by the benchmark's own code, around its calls
   into each layer's public functions; nothing inside the program under
   test is traced. A span carries its layer (the [lib/] directory whose
   function it times), its parent span and the request it belongs to, so
   a layer's self time — its spans minus the part their child spans cover
   — can be computed at the end. *)

let now_ns () = Pref_obs.Clock.now_ns ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* Wall time of [f ()] in milliseconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type span = {
  id : int;
  name : string;
  layer : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (** 0 = root *)
  req : int;  (** request id shared by the spans of one request *)
}

let recording = ref false
let spans : span list ref = ref []
let next_id = ref 0
let lock = Mutex.create ()

let fresh_id () = Mutex.protect lock (fun () -> incr next_id; !next_id)

(* [span ~layer name ~parent ~req f] runs [f id] and, while recording,
   keeps a span for it; [id] is the span id to pass to children. The
   returned float is the span's duration in milliseconds (measured
   whether or not spans are kept). *)
let span ~layer ?(parent = 0) ?(req = 0) name f =
  let id = if !recording then fresh_id () else 0 in
  let t0 = now_ns () in
  let r = f id in
  let t1 = now_ns () in
  if !recording then
    Mutex.protect lock (fun () ->
        spans :=
          { id; name; layer; start_ns = t0; stop_ns = t1; parent; req }
          :: !spans);
  (r, Int64.to_float (Int64.sub t1 t0) /. 1e6)

(* Self time per layer, in ms: each span's duration minus the union of
   its children's intervals (clipped to the span). *)
let self_time_by_layer () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    !spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      (* merge overlapping child intervals, then subtract their length *)
      let covered, last =
        List.fold_left
          (fun (acc, cur) (a, b) ->
            match cur with
            | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
            | Some (ca, cb) -> (Int64.add acc (Int64.sub cb ca), Some (a, b))
            | None -> (acc, Some (a, b)))
          (0L, None) kids
      in
      let covered =
        match last with
        | Some (a, b) -> Int64.add covered (Int64.sub b a)
        | None -> covered
      in
      let self =
        Int64.to_float (Int64.sub (Int64.sub s.stop_ns s.start_ns) covered) /. 1e6
      in
      let prev = Option.value (Hashtbl.find_opt totals s.layer) ~default:0. in
      Hashtbl.replace totals s.layer (prev +. self))
    !spans;
  totals

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line, oldest span first. *)
let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"layer\":%s,\"name\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent s.req (json_string s.layer) (json_string s.name)
        s.start_ns s.stop_ns)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Samples                                                              *)

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. Nearest rank (rather than interpolation) keeps
   a percentile inside one cost class of a mixed statement stream. *)
let percentile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let p50 = percentile 0.5
let maximum xs = List.fold_left Float.max neg_infinity xs

(* ------------------------------------------------------------------ *)
(* Result line                                                          *)

(* The last line of standard output: [metrics] is (name, value, unit). *)
let result_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name)
          value (json_string unit))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

(* Inputs: the tables every server loads (as CSV) and the statement
   streams sent to them.

   The tables and the statement pools come from one fixed data seed, so
   the spread between runs measures the program rather than the dataset
   (a skyline's size, and with it its cost, moves by 10-20% from one
   generated cars table to the next). The workload seed draws everything
   else: which statement each request sends (Zipf and uniform draws),
   the rows a skyline excludes and its AROUND targets, and the rows
   revise_rw inserts. The same seed gives the same inputs. *)

open Pref_relation
module Rng = Pref_workload.Rng

let sprintf = Printf.sprintf

let data_seed = 11

let cars ~seed ~n = Pref_workload.Cars.relation ~seed ~n ()

(* Anti-correlated points in three dimensions ([BKS01]'s hard case: good
   in one dimension means bad in the others), with an [id] key so a
   statement can differ from another by one excluded row. *)
let anti ~seed ~n =
  let rng = Rng.create seed in
  let schema =
    Schema.make
      [ ("id", Value.TInt); ("d0", Value.TFloat); ("d1", Value.TFloat); ("d2", Value.TFloat) ]
  in
  Relation.make schema
    (List.init n (fun i ->
         let p = Pref_workload.Synthetic.point rng ~dims:3 Pref_workload.Synthetic.Anti_correlated in
         Tuple.make
           (Value.Int (i + 1) :: Array.to_list (Array.map (fun x -> Value.Float x) p))))

let column_ints rel col =
  List.filter_map
    (function Value.Int i -> Some i | _ -> None)
    (Relation.column rel col)

let min_max xs = List.fold_left (fun (lo, hi) x -> (min lo x, max hi x)) (max_int, min_int) xs

(* ------------------------------------------------------------------ *)
(* skyline_cold: rounds of fourteen distinct skyline statements         *)

let skyline_round_length = 14

(* One round: fourteen distinct skylines. Two are heavy: the flagship
   LOWEST price ⊗ LOWEST mileage ⊗ HIGHEST horsepower over cars (~2 s at
   n=200k on a quiet 2-core host) and a 3-d anti-correlated one (~1 s).
   Twelve are cheap 2-3-d statements over both tables, mixing LOWEST /
   HIGHEST / AROUND under Pareto and PRIOR TO. With twelve cheap and two
   heavy per round the p50 sits inside the cheap class, whatever the
   number of rounds. Every statement differs from every other of the
   run (an excluded row or an AROUND target drawn from the seed), so
   none can be answered from a result cache. Round 0 carries the
   flagship verbatim. The result draws one round per call. *)
let skyline_rounds rng ~cars_n ~anti_n =
  let ex col n = sprintf " WHERE %s <> %d" col (1 + Rng.int rng n) in
  let cx () = ex "oid" cars_n and ax () = ex "id" anti_n in
  let around lo hi = lo + Rng.int rng (hi - lo) in
  let templates r =
    [
      (fun () ->
        sprintf "SELECT * FROM cars%s PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)"
          (if r = 0 then "" else cx ()));
      (fun () ->
        sprintf "SELECT * FROM cars PREFERRING price AROUND %d AND mileage AROUND %d"
          (around 5_000 40_000) (around 0 150_000));
      (fun () -> sprintf "SELECT * FROM cars%s PREFERRING LOWEST(price) AND HIGHEST(horsepower)" (cx ()));
      (fun () -> sprintf "SELECT * FROM anti PREFERRING d0 AROUND 0.%04d AND LOWEST(d1)" (around 1000 9000));
      (fun () ->
        sprintf
          "SELECT * FROM cars%s PREFERRING (LOWEST(price) AND LOWEST(mileage)) PRIOR TO HIGHEST(horsepower)"
          (cx ()));
      (fun () -> sprintf "SELECT * FROM cars PREFERRING horsepower AROUND %d PRIOR TO LOWEST(price)" (around 60 250));
      (fun () -> sprintf "SELECT * FROM anti%s PREFERRING HIGHEST(d0) AND LOWEST(d1) AND HIGHEST(d2)" (ax ()));
      (fun () ->
        sprintf "SELECT * FROM cars%s PREFERRING HIGHEST(year) AND LOWEST(price) AND LOWEST(mileage)" (cx ()));
      (fun () -> sprintf "SELECT * FROM anti%s PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2)" (ax ()));
      (fun () -> sprintf "SELECT * FROM cars%s PREFERRING LOWEST(commission) AND HIGHEST(year)" (cx ()));
      (fun () ->
        sprintf "SELECT * FROM cars PREFERRING mileage AROUND %d PRIOR TO HIGHEST(year)" (around 0 150_000));
      (fun () -> sprintf "SELECT * FROM anti%s PREFERRING LOWEST(d0) AND HIGHEST(d1)" (ax ()));
      (fun () ->
        sprintf
          "SELECT * FROM cars%s PREFERRING HIGHEST(horsepower) PRIOR TO (LOWEST(price) AND LOWEST(mileage))"
          (cx ()));
      (fun () -> sprintf "SELECT * FROM cars%s PREFERRING year AROUND %d AND LOWEST(price)" (cx ()) (around 1992 2001));
    ]
  in
  (* redraw a statement until it is new to the run *)
  let seen = Hashtbl.create 64 and r = ref 0 in
  fun () ->
    let round =
      List.map
        (fun draw ->
          let rec fresh () =
            let s = draw () in
            if Hashtbl.mem seen s then fresh () else (Hashtbl.add seen s (); s)
          in
          fresh ())
        (templates !r)
    in
    assert (List.length round = skyline_round_length);
    incr r;
    round

(* ------------------------------------------------------------------ *)
(* serve_small: ~40 cheap statements, drawn Zipf-skewed                 *)

(* Statement [i] uses template [i mod 8], so the popular ranks are the
   same kinds of statement under every seed; the seed draws their
   constants. Every template returns at most a few dozen rows of a
   1k-row table. *)
let small_pool rng ~count =
  let pick a = Rng.choice rng a in
  let template i =
    match i mod 8 with
    | 0 ->
      sprintf "SELECT make, price, mileage FROM cars WHERE year >= %d PREFERRING LOWEST(price) AND LOWEST(mileage)"
        (1992 + Rng.int rng 8)
    | 1 ->
      sprintf "SELECT * FROM cars WHERE category = '%s' PREFERRING HIGHEST(horsepower) AND LOWEST(price)"
        (pick Pref_workload.Cars.categories)
    | 2 ->
      sprintf "SELECT oid, make, year, mileage FROM cars WHERE color = '%s' PREFERRING HIGHEST(year) PRIOR TO LOWEST(mileage)"
        (pick Pref_workload.Cars.colors)
    | 3 ->
      sprintf "SELECT make, price FROM cars WHERE year = %d PREFERRING LOWEST(price) GROUPING make"
        (1992 + Rng.int rng 10)
    | 4 ->
      sprintf "SELECT * FROM cars PREFERRING price AROUND %d TOP %d"
        (8_000 + Rng.int rng 30_000) (3 + Rng.int rng 8)
    | 5 ->
      sprintf "SELECT * FROM cars PREFERRING price AROUND %d AND mileage AROUND %d BUT ONLY DISTANCE(price) <= %d"
        (8_000 + Rng.int rng 30_000) (Rng.int rng 120_000) (1_000 + Rng.int rng 3_000)
    | 6 ->
      sprintf "SELECT oid, color FROM cars WHERE make = '%s' PREFERRING LOWEST(mileage) AND HIGHEST(year)"
        (pick Pref_workload.Cars.makes)
    | _ ->
      sprintf "SELECT * FROM cars WHERE make = '%s' PREFERRING LOWEST(price) PRIOR TO HIGHEST(horsepower)"
        (pick Pref_workload.Cars.makes)
  in
  let seen = Hashtbl.create 64 in
  Array.init count (fun i ->
      let rec fresh () =
        let s = template i in
        if Hashtbl.mem seen s then fresh () else (Hashtbl.add seen s (); s)
      in
      fresh ())

(* Zipf(1) ranks over [n] items: index 0 is the most popular. *)
let zipf rng n =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cum.(k) <- !acc
  done;
  fun () ->
    let u = Rng.float rng *. !acc in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

(* ------------------------------------------------------------------ *)
(* revise_rw                                                            *)

let base_term = "LOWEST(price) AND LOWEST(mileage)"
let base_sql = "SELECT * FROM cars PREFERRING " ^ base_term

(* REFINE prior-suffix: old P, new P & S — served from the seed. *)
let seed_term = sprintf "(%s) PRIOR TO HIGHEST(horsepower)" base_term

(* REFINE pareto-extend of the previous revision: old P & S, new
   (P & S) ⊗ Q — the hot-window route over the whole table. *)
let hot_term = sprintf "(%s) AND HIGHEST(year)" seed_term

(* The [i]th generated row: even rows undercut every price, so they
   enter σ[base](cars); odd rows are worse than every car on both price
   and mileage, so they stay out. oids continue past the table's. *)
let rw_rows rng ~rel =
  let lo_price, hi_price = min_max (column_ints rel "price") in
  let _, hi_mileage = min_max (column_ints rel "mileage") in
  let n = Relation.cardinality rel in
  fun i ->
  let enters = i mod 2 = 0 in
  let price = if enters then lo_price - 1 - Rng.int rng 50 else hi_price + 1 + Rng.int rng 50 in
  let mileage = if enters then Rng.int rng 200_000 else hi_mileage + 1 + Rng.int rng 50 in
  ( enters,
    Tuple.make
      [
        Value.Int (n + 1 + i);
        Value.Str (Rng.choice rng Pref_workload.Cars.makes);
        Value.Str (Rng.choice rng Pref_workload.Cars.categories);
        Value.Str (Rng.choice rng Pref_workload.Cars.colors);
        Value.Str (Rng.choice rng Pref_workload.Cars.transmissions);
        Value.Int (60 + Rng.int rng 200);
        Value.Int price;
        Value.Int mileage;
        Value.Int (1992 + Rng.int rng 10);
        Value.Int (100 + Rng.int rng 2_000);
      ] )

let csv_row t =
  String.concat ","
    (List.map Pref_server.Protocol.value_wire (Tuple.to_list t))

(* ------------------------------------------------------------------ *)
(* routed                                                               *)

(* The [k]th smallest distinct positive mileage: a WHERE bound that
   keeps about [k] rows, so the GROUPING-on-the-shard-key statement
   (merge skipped) returns a few dozen rows. *)
let mileage_bound rel k =
  let ms = List.sort_uniq compare (List.filter (fun m -> m > 0) (column_ints rel "mileage")) in
  List.nth ms (min k (List.length ms - 1))

(* Merge-needed statements (Pareto, PRIOR TO, a projection) and two
   merge-skipped ones (GROUPING on the shard key). *)
let routed_pool rng ~rel =
  [|
    "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)";
    "SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(horsepower)";
    sprintf "SELECT * FROM cars PREFERRING price AROUND %d AND LOWEST(mileage)" (8_000 + Rng.int rng 30_000);
    "SELECT * FROM cars PREFERRING LOWEST(price) PRIOR TO HIGHEST(horsepower)";
    "SELECT * FROM cars PREFERRING (LOWEST(mileage) AND HIGHEST(year)) PRIOR TO LOWEST(price)";
    sprintf "SELECT * FROM cars WHERE mileage < %d PREFERRING LOWEST(price) GROUPING mileage"
      (mileage_bound rel (20 + Rng.int rng 20));
    "SELECT make, price, mileage FROM cars PREFERRING HIGHEST(year) AND LOWEST(price)";
    sprintf "SELECT * FROM cars WHERE mileage < %d PREFERRING HIGHEST(horsepower) GROUPING mileage"
      (mileage_bound rel (20 + Rng.int rng 20));
  |]

open Pref_relation
module Pref = Preferences.Pref

type t = Tuple.t -> Tuple.t -> bool

let of_pref schema p = Pref.compile_better schema p

let counting dom =
  let n = ref 0 in
  let dom' a b =
    incr n;
    dom a b
  in
  (dom', fun () -> !n)

(* ------------------------------------------------------------------ *)
(* The float form                                                      *)

(* Each dimension is folded by its own sign, so that larger is better on
   every coordinate. NULL is [neg_infinity] where it is worst (below every
   number on its dimension and tied with another NULL, which is what the
   compiled chain order and the compiled Pareto equality (Value.equal Null
   Null) see) and [infinity] where a dual made it best. The numbers are
   {!Value.as_float}'s, read without its option so that projecting a row
   allocates only the point itself. *)
let project schema dims =
  let dims = Array.of_list dims in
  let idx =
    Array.map (fun (d : Pref.dim) -> Schema.index_of_exn schema d.attr) dims
  and sign =
    Array.map (fun (d : Pref.dim) -> if d.maximize then 1.0 else -1.0) dims
  and null =
    Array.map
      (fun (d : Pref.dim) ->
        if d.null_best then Float.infinity else Float.neg_infinity)
      dims
  in
  fun t ->
    let v = Array.make (Array.length idx) 0. in
    for k = 0 to Array.length idx - 1 do
      let sign = Array.unsafe_get sign k in
      Array.unsafe_set v k
        (match Tuple.get t (Array.unsafe_get idx k) with
        | Value.Int i -> sign *. float_of_int i
        | Value.Float f -> sign *. f
        | Value.Date d -> sign *. float_of_int (Value.date_to_days d)
        | Value.Bool b -> if b then sign else 0.
        | Value.Null | Value.Str _ -> Array.unsafe_get null k)
    done;
    v

let floats_dominate (v : float array) (w : float array) =
  let d = Array.length v in
  let i = ref 0 in
  while !i < d && Array.unsafe_get v !i >= Array.unsafe_get w !i do
    incr i
  done;
  !i >= d
  &&
  let j = ref 0 in
  while !j < d && not (Array.unsafe_get v !j > Array.unsafe_get w !j) do
    incr j
  done;
  !j < d

(* The projection is exact only over numeric columns (the relation layer
   enforces column types, so values are then numbers or NULL). A chain
   over e.g. a string column keeps the row form: two distinct strings are
   incomparable there, not tied. *)
let numeric_ty = function
  | Value.TInt | Value.TFloat | Value.TDate | Value.TBool -> true
  | Value.TStr -> false

let numeric_columns schema dims =
  List.for_all
    (fun (d : Pref.dim) ->
      match Schema.type_of schema d.attr with
      | Some ty -> numeric_ty ty
      | None -> false)
    dims

let float_chain schema p =
  match Pref.skyline_dims p with
  | Some dims as chain when numeric_columns schema dims -> chain
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Choosing the form                                                   *)

type points =
  | Points : {
      rows : Tuple.t array;
      point : int -> 'p;
      dom : 'p -> 'p -> bool;
    }
      -> points

(* SFS order over projections: if v dominates w, v has no more
   [neg_infinity] (worst NULL) coordinates than w and no fewer [infinity]
   (best NULL) ones, and with as many of each it has them on the same
   dimensions and a larger sum over the rest — so sorting by those three
   keys is topological. A plain sum is not: one NULL makes it infinite. *)
let sfs_order (pts : float array array) =
  let worst = Array.make (Array.length pts) 0
  and best = Array.make (Array.length pts) 0 in
  let sums =
    Array.mapi
      (fun i v ->
        Array.fold_left
          (fun acc x ->
            if x = Float.neg_infinity then begin
              worst.(i) <- worst.(i) + 1;
              acc
            end
            else if x = Float.infinity then begin
              best.(i) <- best.(i) + 1;
              acc
            end
            else acc +. x)
          0. v)
      pts
  in
  let order = Array.init (Array.length pts) Fun.id in
  Array.stable_sort
    (fun a b ->
      match Int.compare worst.(a) worst.(b) with
      | 0 -> (
        match Int.compare best.(b) best.(a) with
        | 0 -> Float.compare sums.(b) sums.(a)
        | c -> c)
      | c -> c)
    order;
  order

let points ?(presort = false) schema p =
  let chain = Pref.skyline_dims p in
  let numeric =
    match chain with Some dims -> numeric_columns schema dims | None -> false
  in
  match chain with
  | Some dims when presort || numeric ->
    let project = project schema dims in
    let presorted rows =
      let pts = Array.map project rows in
      let order = sfs_order pts in
      (Array.map (Array.get rows) order, Array.map (Array.get pts) order)
    in
    if not numeric then
      let dom = of_pref schema p in
      fun rows ->
        let rows, _ = presorted rows in
        Points { rows; point = Array.get rows; dom }
    else if presort then fun rows ->
      let rows, pts = presorted rows in
      Points { rows; point = Array.get pts; dom = floats_dominate }
    else fun rows ->
      (* projected on demand: a pass asks for each point once, and the
         points that never enter a window die young instead of being
         promoted with an input-sized array holding them *)
      Points
        {
          rows;
          point = (fun k -> project (Array.get rows k));
          dom = floats_dominate;
        }
  | Some _ | None ->
    if presort then invalid_arg "Dominance.points: presort needs a chain skyline";
    let dom = of_pref schema p in
    fun rows -> Points { rows; point = Array.get rows; dom }

let floats schema p =
  match float_chain schema p with
  | Some dims -> Array.map (project schema dims)
  | None -> invalid_arg "Dominance.floats: not a skyline over numeric columns"

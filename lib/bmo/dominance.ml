open Pref_relation

type t = Tuple.t -> Tuple.t -> bool

let of_pref schema p = Preferences.Pref.compile_better schema p

let counting dom =
  let n = ref 0 in
  let dom' a b =
    incr n;
    dom a b
  in
  (dom', fun () -> !n)

(* ------------------------------------------------------------------ *)
(* The float form                                                      *)

(* NULL is [neg_infinity]: below every number on its dimension and tied
   with another NULL, which is what the compiled chain order and the
   compiled Pareto equality (Value.equal Null Null) see. The numbers are
   {!Value.as_float}'s, read without its option so that projecting a row
   allocates only the point itself. *)
let project schema attrs ~maximize =
  let idx = Array.of_list (List.map (Schema.index_of_exn schema) attrs) in
  let sign = if maximize then 1.0 else -1.0 in
  fun t ->
    let v = Array.make (Array.length idx) 0. in
    for k = 0 to Array.length idx - 1 do
      Array.unsafe_set v k
        (match Tuple.get t (Array.unsafe_get idx k) with
        | Value.Int i -> sign *. float_of_int i
        | Value.Float f -> sign *. f
        | Value.Date d -> sign *. float_of_int (Value.date_to_days d)
        | Value.Bool b -> if b then sign else 0.
        | Value.Null | Value.Str _ -> Float.neg_infinity)
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

let numeric_columns schema attrs =
  List.for_all
    (fun a ->
      match Schema.type_of schema a with
      | Some ty -> numeric_ty ty
      | None -> false)
    attrs

let float_chain schema p =
  match Preferences.Pref.chain_dims p with
  | Some (attrs, _) as chain when numeric_columns schema attrs -> chain
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

(* SFS order over projections: if v dominates w, v has no more NULL
   dimensions than w, and with as many it has the same NULL dimensions and
   a larger sum over the rest — so sorting by (NULL count ascending, sum
   descending) is topological. A plain sum is not: one NULL makes it
   infinite. *)
let sfs_order (pts : float array array) =
  let nulls = Array.make (Array.length pts) 0 in
  let sums =
    Array.mapi
      (fun i v ->
        Array.fold_left
          (fun acc x ->
            if x = Float.neg_infinity then begin
              nulls.(i) <- nulls.(i) + 1;
              acc
            end
            else acc +. x)
          0. v)
      pts
  in
  let order = Array.init (Array.length pts) Fun.id in
  Array.stable_sort
    (fun a b ->
      match Int.compare nulls.(a) nulls.(b) with
      | 0 -> Float.compare sums.(b) sums.(a)
      | c -> c)
    order;
  order

let points ?(presort = false) schema p =
  let chain = Preferences.Pref.chain_dims p in
  let numeric =
    match chain with
    | Some (attrs, _) -> numeric_columns schema attrs
    | None -> false
  in
  match chain with
  | Some (attrs, maximize) when presort || numeric ->
    let project = project schema attrs ~maximize in
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
  | Some (attrs, maximize) -> Array.map (project schema attrs ~maximize)
  | None -> invalid_arg "Dominance.floats: not a skyline over numeric columns"

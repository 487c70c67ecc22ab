open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Heap --------------------------------------------------------------- *)

let test_heap () =
  let h = Heap.create () in
  check "empty" true (Heap.is_empty h);
  check "pop empty" true (Heap.pop h = None);
  List.iter (fun (p, v) -> Heap.push h p v) [ (3., "c"); (7., "a"); (5., "b"); (1., "d") ];
  check_int "size" 4 (Heap.size h);
  (match Heap.peek h with
  | Some (7., "a") -> ()
  | _ -> Alcotest.fail "peek should be the max");
  let drained = List.init 4 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "descending order" [ "a"; "b"; "c"; "d" ] drained;
  check "drained" true (Heap.is_empty h);
  (* stress against List.sort *)
  let rng = Pref_workload.Rng.create 3 in
  let xs = List.init 500 (fun _ -> Pref_workload.Rng.float rng) in
  let h2 = Heap.create () in
  List.iter (fun x -> Heap.push h2 x x) xs;
  let out = List.init 500 (fun _ -> fst (Option.get (Heap.pop h2))) in
  check "heap sort agrees" true
    (out = List.sort (fun a b -> Float.compare b a) xs)

(* --- Kd-tree ------------------------------------------------------------- *)

let test_kdtree () =
  let rng = Pref_workload.Rng.create 11 in
  let points =
    Array.init 300 (fun _ ->
        [| Pref_workload.Rng.float rng; Pref_workload.Rng.float rng;
           Pref_workload.Rng.float rng |])
  in
  let tree = Kdtree.build points in
  check_int "all points reachable" 300 (Kdtree.size_of (Kdtree.root tree));
  check "reasonable depth" true (Kdtree.depth_of (Kdtree.root tree) <= 10);
  (* bounding boxes contain their subtrees *)
  let rec verify node =
    let mins, maxs = Kdtree.node_bbox points node in
    match node with
    | Kdtree.Leaf idxs ->
      Array.for_all
        (fun i ->
          Array.for_all (fun ok -> ok)
            (Array.mapi (fun k x -> x >= mins.(k) && x <= maxs.(k)) points.(i)))
        idxs
    | Kdtree.Split s -> verify s.left && verify s.right
  in
  check "bounding boxes valid" true (verify (Kdtree.root tree));
  (* degenerate input: all identical points *)
  let same = Array.make 100 [| 1.; 2. |] in
  let t2 = Kdtree.build same in
  check_int "identical points all kept" 100 (Kdtree.size_of (Kdtree.root t2));
  Alcotest.check_raises "empty input" (Invalid_argument "Kdtree.build: no points")
    (fun () -> ignore (Kdtree.build [||]))

(* --- BBS ------------------------------------------------------------------ *)

let num_schema =
  Schema.make [ ("x", Value.TFloat); ("y", Value.TFloat); ("z", Value.TFloat) ]

let skyline3 =
  Pref.pareto_all [ Pref.highest "x"; Pref.highest "y"; Pref.highest "z" ]

let arb_points =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.Dump.list Tuple.pp))
    QCheck.Gen.(
      list_size (int_range 1 80)
        (map
           (fun (a, b, c) ->
             Tuple.make
               [
                 Value.Float (float_of_int a); Value.Float (float_of_int b);
                 Value.Float (float_of_int c);
               ])
           (triple (int_range 0 6) (int_range 0 6) (int_range 0 6))))

(* BBS over the float form, mapped back to rows *)
let bbs schema p rows =
  let arr = Array.of_list rows in
  let idx, stats = Bbs.maxima (Dominance.floats schema p arr) in
  (Array.to_list (Array.map (Array.get arr) idx), stats)

let prop_bbs_agrees =
  QCheck.Test.make ~count:300 ~name:"BBS = naive on numeric Pareto" arb_points
    (fun rows ->
      let dom = Dominance.of_pref num_schema skyline3 in
      let result, _ = bbs num_schema skyline3 rows in
      List.sort Tuple.compare (Naive.maxima dom rows)
      = List.sort Tuple.compare result)

let test_bbs_pruning () =
  (* on correlated data most of the tree is pruned without being opened *)
  let rel =
    Pref_workload.Synthetic.relation ~seed:5 ~n:4000 ~dims:3
      Pref_workload.Synthetic.Correlated
  in
  let schema = Relation.schema rel in
  let p =
    Pref.pareto_all
      (List.map Pref.highest (Pref_workload.Synthetic.dim_names 3))
  in
  let result, stats = bbs schema p (Relation.rows rel) in
  check "some pruning happened" true (stats.Bbs.pruned_subtrees > 0);
  check "most points never tested" true (stats.Bbs.points_tested < 4000 / 2);
  (* and the result matches BNL *)
  check "matches BNL" true
    (Relation.equal_as_sets
       (Relation.make schema result)
       (Bnl.query schema p rel))

let test_bbs_duplicates () =
  let t a b = Tuple.make [ Value.Float a; Value.Float b; Value.Float 0. ] in
  let rows = [ t 1. 1.; t 1. 1.; t 0. 0. ] in
  let result, _ = bbs num_schema skyline3 rows in
  check_int "both duplicate maxima kept" 2 (List.length result)

let test_bbs_empty () =
  let result, stats = bbs num_schema (Pref.highest "x") [] in
  check "empty input" true (result = [] && stats.Bbs.points_tested = 0)

let suite =
  [
    Gen.quick "heap" test_heap;
    Gen.quick "kd-tree" test_kdtree;
    Gen.quick "BBS pruning on correlated data" test_bbs_pruning;
    Gen.quick "BBS duplicate maxima" test_bbs_duplicates;
    Gen.quick "BBS empty input" test_bbs_empty;
  ]
  @ Gen.qsuite [ prop_bbs_agrees ]

open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)
let check_rel = Alcotest.check Gen.relation_testable

(* --- Example 8: BMO over EXPLICIT ---------------------------------- *)

let colour_schema = Schema.make [ ("color", Value.TStr) ]
let c s = Tuple.make [ Value.Str s ]
let v s = Value.Str s

let example1_pref =
  Pref.explicit "color"
    [ (v "green", v "yellow"); (v "green", v "red"); (v "yellow", v "white") ]

let test_example8 () =
  let r = Relation.make colour_schema (List.map c [ "yellow"; "red"; "green"; "black" ]) in
  let result = Query.sigma colour_schema example1_pref r in
  check_rel "sigma = {yellow, red}"
    (Relation.make colour_schema [ c "yellow"; c "red" ])
    result;
  (* red is a perfect match: it is maximal in the whole domain of wishes *)
  let perfect =
    Query.perfect_matches colour_schema example1_pref
      ~ideal:(fun t ->
        Quality.level example1_pref (Tuple.get t 0) = Some 1)
      r
  in
  check_rel "perfect match = {red}" (Relation.make colour_schema [ c "red" ]) perfect

(* --- Example 9: non-monotonicity ------------------------------------ *)

let cars_schema =
  Schema.make
    [
      ("fuel_economy", Value.TInt);
      ("insurance_rating", Value.TInt);
      ("nickname", Value.TStr);
    ]

let car (f, i, n) = Tuple.make [ Value.Int f; Value.Int i; Value.Str n ]

let frog = car (100, 3, "frog")
let cat = car (50, 3, "cat")
let shark = car (50, 10, "shark")
let turtle = car (100, 10, "turtle")

let p_example9 =
  Pref.pareto (Pref.highest "fuel_economy") (Pref.highest "insurance_rating")

let test_example9 () =
  let q cars = Query.sigma cars_schema p_example9 (Relation.make cars_schema cars) in
  check_rel "two cars" (Relation.make cars_schema [ frog ]) (q [ frog; cat ]);
  check_rel "three cars"
    (Relation.make cars_schema [ frog; shark ])
    (q [ frog; cat; shark ]);
  check_rel "four cars"
    (Relation.make cars_schema [ turtle ])
    (q [ frog; cat; shark; turtle ])

(* --- Example 10: grouped prioritized evaluation ---------------------- *)

let make_schema =
  Schema.make [ ("make", Value.TStr); ("price", Value.TInt); ("oid", Value.TInt) ]

let offer (m, p, o) = Tuple.make [ Value.Str m; Value.Int p; Value.Int o ]

let offers =
  List.map offer
    [ ("Audi", 40000, 1); ("BMW", 35000, 2); ("VW", 20000, 3); ("BMW", 50000, 4) ]

let test_example10 () =
  let rel = Relation.make make_schema offers in
  let p1 = Pref.antichain [ "make" ] and p2 = Pref.around "price" 40000. in
  let result = Query.sigma make_schema (Pref.prior p1 p2) rel in
  let expected =
    Relation.make make_schema
      (List.map offer [ ("Audi", 40000, 1); ("BMW", 35000, 2); ("VW", 20000, 3) ])
  in
  check_rel "one offer per make around 40000" expected result;
  (* the same through the groupby evaluation of Proposition 10's right side *)
  check_rel "groupby form"
    expected
    (Query.sigma_groupby make_schema p2 ~by:[ "make" ] rel);
  (* and Definition 16's declarative form *)
  check_rel "antichain form" expected
    (Groupby.query_via_antichain make_schema p2 ~by:[ "make" ] rel)

(* --- Example 11: Pareto of dual chains ------------------------------- *)

let test_example11 () =
  let schema = Schema.make [ ("a", Value.TInt) ] in
  let t n = Tuple.make [ Value.Int n ] in
  let r = Relation.make schema [ t 3; t 6; t 9 ] in
  let p1 = Pref.lowest "a" and p2 = Pref.highest "a" in
  let pareto = Pref.pareto p1 p2 in
  check_rel "sigma[P1 (x) P2](R) = R" r (Query.sigma schema pareto r);
  (* the YY term contains exactly {6} *)
  let yy = Decompose.yy schema (Pref.prior p1 p2) (Pref.prior p2 p1) r in
  Alcotest.(check int) "|YY| = 1" 1 (List.length yy);
  Alcotest.check Gen.tuple_testable "YY = {6}" (t 6) (List.hd yy);
  (* and the decomposition-based evaluator agrees *)
  check_rel "decompose agrees" r (Decompose.eval schema pareto r)

(* --- Algorithms agree on random inputs ------------------------------- *)

let count = 300

let prop_bnl_agrees =
  QCheck.Test.make ~count ~name:"BNL = naive on random preferences"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let dom = Dominance.of_pref Gen.schema p in
      let a = Naive.maxima dom rows and b = Bnl.maxima dom rows in
      List.sort Tuple.compare a = List.sort Tuple.compare b)

let prop_groupby_forms_agree =
  QCheck.Test.make ~count:150
    ~name:"groupby = sigma[A<-> & P] (definition 16)"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let by = [ "a" ] in
      Relation.equal_as_sets
        (Groupby.query Gen.schema p ~by rel)
        (Groupby.query_via_antichain Gen.schema p ~by rel))

let prop_equiv_implies_same_bmo =
  (* Proposition 7: equivalent preferences give identical BMO results. *)
  QCheck.Test.make ~count:150 ~name:"proposition 7 via the rewriter"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let q = Rewrite.simplify p in
      Relation.equal_as_sets
        (Query.sigma Gen.schema p rel)
        (Query.sigma Gen.schema q rel))

let prop_result_nonempty =
  QCheck.Test.make ~count:150 ~name:"BMO never returns empty on non-empty R"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      rows = [] || not (Relation.is_empty (Query.sigma Gen.schema p (Gen.rel rows))))

let prop_result_subset =
  QCheck.Test.make ~count:150 ~name:"BMO result is a subset of R"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      List.for_all (Relation.mem rel) (Relation.rows (Query.sigma Gen.schema p rel)))

let prop_no_dominated_results =
  QCheck.Test.make ~count:150 ~name:"no result tuple is dominated"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let dom = Dominance.of_pref Gen.schema p in
      let res = Relation.rows (Query.sigma Gen.schema p rel) in
      List.for_all (fun t -> not (List.exists (fun u -> dom u t) rows)) res)

(* --- SFS and D&C on numeric Pareto ----------------------------------- *)

let num_schema = Schema.make [ ("x", Value.TFloat); ("y", Value.TFloat); ("z", Value.TFloat) ]

let arb_points =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.Dump.list Tuple.pp))
    QCheck.Gen.(
      list_size (int_range 0 60)
        (map
           (fun (a, b, c) ->
             Tuple.make
               [
                 Value.Float (float_of_int a);
                 Value.Float (float_of_int b);
                 Value.Float (float_of_int c);
               ])
           (triple (int_range 0 6) (int_range 0 6) (int_range 0 6))))

let skyline_pref =
  Pref.pareto_all [ Pref.highest "x"; Pref.highest "y"; Pref.highest "z" ]

let skyline_attrs = [ "x"; "y"; "z" ]

let executes schema p rows plan =
  Relation.rows (Planner.execute schema p (Relation.make schema rows) plan)

let prop_sfs_agrees =
  QCheck.Test.make ~count ~name:"SFS = naive on numeric Pareto" arb_points
    (fun rows ->
      let dom = Dominance.of_pref num_schema skyline_pref in
      List.sort Tuple.compare (Naive.maxima dom rows)
      = List.sort Tuple.compare
          (executes num_schema skyline_pref rows
             (Planner.Plan_sfs { attrs = skyline_attrs; maximize = true })))

let prop_dnc_agrees =
  QCheck.Test.make ~count ~name:"D&C = naive on numeric Pareto" arb_points
    (fun rows ->
      let dom = Dominance.of_pref num_schema skyline_pref in
      List.sort Tuple.compare (Naive.maxima dom rows)
      = List.sort Tuple.compare
          (executes num_schema skyline_pref rows
             (Planner.Plan_dnc { attrs = skyline_attrs; maximize = true })))

let test_dnc_minimize () =
  let rows =
    List.map
      (fun (a, b, c) ->
        Tuple.make [ Value.Float a; Value.Float b; Value.Float c ])
      [ (1., 1., 1.); (2., 2., 2.); (1., 3., 1.) ]
  in
  let p = Pref.pareto_all (List.map Pref.lowest skyline_attrs) in
  let result =
    executes num_schema p rows
      (Planner.Plan_dnc { attrs = skyline_attrs; maximize = false })
  in
  Alcotest.(check int) "only the all-1 point survives" 1 (List.length result)

(* --- SFS with NULLs --------------------------------------------------- *)

(* A NULL is worse than every number in both directions, so the SFS order
   must put it last under LOWEST too: (1,1) and (3,0.5) both dominate
   (NULL,5), and σ[P] keeps two rows. *)
let test_sfs_null_lowest () =
  let schema = Schema.make [ ("x", Value.TFloat); ("y", Value.TFloat) ] in
  let rel =
    Relation.make schema
      (List.map
         (fun (x, y) -> Tuple.make [ x; Value.Float y ])
         [ (Value.Null, 5.); (Value.Float 1., 1.); (Value.Float 3., 0.5) ])
  in
  let p = Pref.pareto (Pref.lowest "x") (Pref.lowest "y") in
  let attrs = [ "x"; "y" ] in
  let naive = Naive.query schema p rel in
  Alcotest.(check int) "naive keeps two rows" 2 (Relation.cardinality naive);
  List.iter
    (fun plan ->
      check_rel (Planner.plan_to_string plan) naive
        (Planner.execute schema p rel plan))
    [
      Planner.Plan_sfs { attrs; maximize = false };
      Planner.Plan_par_sfs { attrs; maximize = false; domains = 1 };
      Planner.Plan_par_sfs { attrs; maximize = false; domains = 2 };
    ]

(* --- One kernel family: every plan kind = Naive ------------------------ *)

let kernel_schema =
  Schema.make
    [
      ("id", Value.TInt);
      ("a", Value.TInt);
      ("b", Value.TInt);
      ("c", Value.TStr);
      ("d", Value.TFloat);
    ]

(* Deterministic rows with a unique id, so multiset comparison also holds
   for decompose, which drops duplicate rows. *)
let kernel_rows ~nulls n =
  let state = ref 7 in
  let next k =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod k
  in
  List.init n (fun i ->
      let null_every m v = if nulls && i mod m = 0 then Value.Null else v in
      let a = Value.Int (next 20) and b = Value.Int (next 20) in
      let c = Value.Str (List.nth [ "x"; "y"; "z"; "w" ] (next 4)) in
      let d = Value.Float (float_of_int (next 40) /. 4.) in
      Tuple.make
        [
          Value.Int i; null_every 7 a; null_every 11 b; null_every 13 c;
          null_every 5 d;
        ])

let kernel_shapes =
  [
    ( "same-direction chain",
      Pref.pareto_all [ Pref.lowest "a"; Pref.lowest "b"; Pref.lowest "d" ] );
    ("mixed-direction chain", Pref.pareto (Pref.lowest "a") (Pref.highest "d"));
    ( "AROUND (x) AROUND",
      Pref.pareto (Pref.around "a" 10.) (Pref.around "d" 5.) );
    ("PRIOR TO", Pref.prior (Pref.lowest "a") (Pref.highest "b"));
    ( "POS on a string column",
      Pref.pareto (Pref.pos "c" [ v "x"; v "y" ]) (Pref.highest "d") );
  ]

(* The plan kinds that can evaluate [p]: every kind for every shape, except
   that the SFS and divide & conquer kinds need a chain skyline and the
   cascade a prioritization headed by a chain. The kernels read the term's
   own directions; the record fields only restate it, so a mixed-direction
   chain runs them too. *)
let kernel_plans p =
  let domains = 3 in
  [ Planner.Plan_naive; Plan_bnl; Plan_par_dnc { domains }; Plan_decompose ]
  @ (match Pref.skyline_dims p with
    | Some dims ->
      let attrs = List.map (fun (d : Pref.dim) -> d.attr) dims
      and maximize = List.for_all (fun (d : Pref.dim) -> d.maximize) dims in
      [
        Planner.Plan_sfs { attrs; maximize };
        Plan_dnc { attrs; maximize };
        Plan_par_sfs { attrs; maximize; domains };
      ]
    | None -> [])
  @ match p with Pref.Prior (p1, p2) -> [ Planner.Plan_cascade (p1, p2) ] | _ -> []

let sorted_rows rel = List.sort Tuple.compare (Relation.rows rel)

let test_kernel_equivalence () =
  let n = 240 in
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun nulls ->
      let rel = Relation.make kernel_schema (kernel_rows ~nulls n) in
      List.iter
        (fun (shape, p) ->
          let expected = sorted_rows (Naive.query kernel_schema p rel) in
          List.iter
            (fun plan ->
              let kind = Planner.plan_kind plan in
              Hashtbl.replace kinds kind ();
              let label =
                Printf.sprintf "%s, %s NULLs: %s" shape
                  (if nulls then "with" else "without")
                  kind
              in
              let result, o = Planner.evaluate kernel_schema p rel plan in
              check label true (sorted_rows result = expected);
              Option.iter
                (fun peak ->
                  check (label ^ ": result <= peak <= n") true
                    (Relation.cardinality result <= peak && peak <= n))
                o.Planner.o_peak)
            (kernel_plans p))
        kernel_shapes)
    [ false; true ];
  Alcotest.(check (list string))
    "every plan kind ran"
    [ "bnl"; "cascade"; "decompose"; "dnc"; "naive"; "par_dnc"; "par_sfs"; "sfs" ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys kinds)));
  (* the window's deadline contract, in both point forms *)
  let rel = Relation.make kernel_schema (kernel_rows ~nulls:true n) in
  let expired =
    Engine.deadline_of { Engine.default with deadline_ms = Some 0. }
  in
  List.iter
    (fun (shape, p) ->
      match Dominance.points kernel_schema p (Array.of_list (Relation.rows rel)) with
      | Points { rows; point; dom } ->
        let n = Array.length rows in
        let unbounded, r = Bnl.window dom n point in
        check (shape ^ ": no deadline never times out") true (not r.Bnl.timed_out);
        let same, r = Bnl.window ~deadline:Engine.no_deadline dom n point in
        check (shape ^ ": no_deadline is unbounded") true
          (same = unbounded && not r.Bnl.timed_out);
        let none, r = Bnl.window ~deadline:expired dom n point in
        check (shape ^ ": expired deadline scans nothing") true
          (none = [||] && r.Bnl.timed_out);
        let none, r = Sfs.filter ~deadline:expired dom n point in
        check (shape ^ ": expired deadline filters nothing") true
          (none = [||] && r.Bnl.timed_out))
    kernel_shapes;
  (* a cut-off pass is the BMO set of the scanned prefix: an anti-chain
     under a slowed test outlives a 10 ms budget *)
  let m = 600 in
  let pts = Array.init m (fun i -> [| float_of_int i; float_of_int (m - i) |]) in
  let slow a b =
    let since = Pref_obs.Clock.now_ns () in
    while Pref_obs.Clock.elapsed_ms ~since < 0.005 do
      ()
    done;
    Dominance.floats_dominate a b
  in
  let deadline =
    Engine.deadline_of { Engine.default with deadline_ms = Some 10. }
  in
  let cut, r = Bnl.window ~deadline slow m (Array.get pts) in
  check "slowed pass times out" true r.Bnl.timed_out;
  let prefix_bmo k =
    List.filter
      (fun i ->
        not
          (List.exists
             (fun j -> Dominance.floats_dominate pts.(j) pts.(i))
             (List.init k Fun.id)))
      (List.init k Fun.id)
  in
  check "cut-off result is the BMO set of a scanned prefix" true
    (List.exists
       (fun j ->
         let k = j * Bnl.deadline_stride in
         k < m && prefix_bmo k = Array.to_list cut)
       (List.init ((m / Bnl.deadline_stride) + 1) Fun.id))

(* --- AROUND stays on the row form ------------------------------------- *)

(* AROUND is not LOWEST over a distance column: Definition 8's Pareto
   equality compares the values, so a=9 and a=11 (both at distance 1 from
   10) are not tied and (11, 2) is not dominated by (9, 1). A distance
   projection would tie them and drop (11, 2). *)
let test_around_row_form () =
  let schema = Schema.make [ ("a", Value.TInt); ("b", Value.TInt) ] in
  let row a b = Tuple.make [ Value.Int a; Value.Int b ] in
  let rel = Relation.make schema [ row 9 1; row 11 2 ] in
  let p = Pref.pareto (Pref.around "a" 10.) (Pref.lowest "b") in
  check "AROUND is not a float-form dimension" true
    (Dominance.float_chain schema p = None);
  let expected = sorted_rows (Naive.query schema p rel) in
  check "naive keeps both rows" true (expected = [ row 9 1; row 11 2 ]);
  List.iter
    (fun plan ->
      check (Planner.plan_kind plan) true
        (sorted_rows (Planner.execute schema p rel plan) = expected))
    (kernel_plans p)

(* --- Mixed-direction chains on the float form ------------------------ *)

let chain_attrs = [ "i"; "j"; "f"; "t" ]

let chain_schema =
  Schema.make
    [
      ("i", Value.TInt); ("j", Value.TInt); ("f", Value.TFloat);
      ("t", Value.TDate);
    ]

(* tiny domains so that ties and NULLs are common; 0 is NULL *)
let chain_value attr k =
  if k = 0 then Value.Null
  else
    match attr with
    | "i" | "j" -> Value.Int k
    | "f" -> Value.Float (float_of_int k /. 2.)
    | _ -> Value.date ~year:2002 ~month:1 ~day:k

(* 2-4 chains over distinct columns, each LOWEST or HIGHEST, either one
   possibly under a dual, and the whole possibly dualised *)
let arb_chain_rows =
  let open QCheck.Gen in
  let dim a =
    oneofl
      [
        Pref.lowest a; Pref.highest a; Pref.dual (Pref.lowest a);
        Pref.dual (Pref.highest a);
      ]
  in
  let chain =
    shuffle_l chain_attrs >>= fun attrs ->
    int_range 2 4 >>= fun d ->
    flatten_l (List.map dim (List.filteri (fun k _ -> k < d) attrs))
    >>= fun dims ->
    map
      (fun dual ->
        let p = Pref.pareto_all dims in
        if dual then Pref.dual p else p)
      bool
  in
  let row =
    map
      (fun ks -> Tuple.make (List.map2 chain_value chain_attrs ks))
      (list_repeat 4 (int_range 0 4))
  in
  QCheck.make
    ~print:(fun (p, rows) ->
      Fmt.str "%a@ %a" Show.pp p (Fmt.Dump.list Tuple.pp) rows)
    (pair chain (list_size (int_range 0 40) row))

let prop_mixed_chains =
  QCheck.Test.make ~count
    ~name:"float-form BNL = naive on mixed chains, as many tests as rows"
    arb_chain_rows (fun (p, rows) ->
      let rel = Relation.make chain_schema rows in
      let result, o = Planner.evaluate chain_schema p rel Planner.Plan_bnl in
      let arr = Array.of_list rows in
      let row_idx, row_run =
        Bnl.window (Dominance.of_pref chain_schema p) (Array.length arr)
          (Array.get arr)
      in
      Dominance.float_chain chain_schema p <> None
      && sorted_rows result = sorted_rows (Naive.query chain_schema p rel)
      && Relation.rows result
         = Array.to_list (Array.map (Array.get arr) row_idx)
      && o.Planner.o_tests = row_run.Bnl.tests)

let suite =
  [
    Gen.quick "example 8: BMO and perfect match" test_example8;
    Gen.quick "example 9: non-monotonicity" test_example9;
    Gen.quick "example 10: grouped evaluation" test_example10;
    Gen.quick "example 11: pareto of dual chains" test_example11;
    Gen.quick "D&C minimize" test_dnc_minimize;
  ]
  @ Gen.qsuite
      [
        prop_bnl_agrees;
        prop_groupby_forms_agree;
        prop_equiv_implies_same_bmo;
        prop_result_nonempty;
        prop_result_subset;
        prop_no_dominated_results;
        prop_sfs_agrees;
        prop_dnc_agrees;
      ]
  (* Later cases go last so earlier ones keep their positions in the run. *)
  @ [
      Gen.quick "SFS ranks NULL last under LOWEST" test_sfs_null_lowest;
      Gen.quick "every plan kind = naive, one window" test_kernel_equivalence;
      Gen.quick "AROUND stays on the row form" test_around_row_form;
    ]
  @ Gen.qsuite [ prop_mixed_chains ]

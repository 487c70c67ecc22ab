(* Preference revision: the classifier on canonical forms, the session's
   REFINE evaluation routes (seed re-winnow / hot window / cold), seed
   survival across single-row DML, and a QCheck property checking that
   arbitrary revision sequences interleaved with DML always agree with a
   from-scratch evaluation of the revised statement. *)

open Pref_relation
open Preferences
open Pref_engine

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Classifier                                                          *)

let test_classify () =
  let p = Pref.lowest "a" and q = Pref.highest "b" and r = Pref.lowest "d" in
  let kind = Alcotest.testable
      (fun ppf k -> Fmt.string ppf (Revise.kind_to_string k))
      (fun a b -> a = b)
  in
  let classify ~old_p ~new_p = Revise.classify ~old_p ~new_p in
  Alcotest.check kind "same term" Revise.Same (classify ~old_p:p ~new_p:p);
  (* canonical reordering of a Pareto never masks equality *)
  Alcotest.check kind "pareto commutes" Revise.Same
    (classify ~old_p:(Pref.pareto p q) ~new_p:(Pref.pareto q p));
  (* P' = P & S: the old prioritisation spine is a strict prefix *)
  Alcotest.check kind "prior suffix" Revise.Prior_suffix
    (classify ~old_p:p ~new_p:(Pref.prior p q));
  Alcotest.check kind "longer prior suffix" Revise.Prior_suffix
    (classify ~old_p:(Pref.prior p q) ~new_p:(Pref.prior (Pref.prior p q) r));
  (* P' = P ⊗ Q: the old Pareto operands are a strict subset *)
  Alcotest.check kind "pareto extend" Revise.Pareto_extend
    (classify ~old_p:p ~new_p:(Pref.pareto p q));
  Alcotest.check kind "pareto extend from pair" Revise.Pareto_extend
    (classify ~old_p:(Pref.pareto p q) ~new_p:(Pref.pareto (Pref.pareto p q) r));
  (* dropping operands is a contraction, whatever the operator *)
  Alcotest.check kind "prior contraction" Revise.Contraction
    (classify ~old_p:(Pref.prior p q) ~new_p:p);
  Alcotest.check kind "pareto contraction" Revise.Contraction
    (classify ~old_p:(Pref.pareto p q) ~new_p:p);
  Alcotest.check kind "unrelated" Revise.Disjoint
    (classify ~old_p:p ~new_p:q)

(* ------------------------------------------------------------------ *)
(* Session REFINE routes                                               *)

let cars_schema =
  Schema.make
    [ ("price", Value.TInt); ("power", Value.TInt); ("mileage", Value.TInt) ]

let car (p, w, m) = Tuple.make [ Value.Int p; Value.Int w; Value.Int m ]

let cars =
  Relation.make cars_schema
    (List.map car
       [
         (10_000, 100, 50_000);
         (12_000, 160, 20_000);
         (9_000, 90, 90_000);
         (20_000, 220, 10_000);
         (15_000, 160, 60_000);
         (9_000, 120, 70_000);
         (11_000, 140, 40_000);
       ])

let fresh_session () =
  Session.create ~env:[ ("cars", cars) ] ()

let cold session sql = (Pref_sql.Exec.run (Session.env session) sql).Pref_sql.Exec.relation

let seed_sql = "SELECT * FROM cars PREFERRING LOWEST(price)"

let test_refine_routes () =
  let session = fresh_session () in
  ignore (Session.run session seed_sql);
  (* prior-suffix: served by re-winnowing the cached seed alone *)
  let o = Session.refine session "LOWEST(price) PRIOR TO HIGHEST(power)" in
  check_str "route" "refine:seed" o.Revise.o_plan;
  check "kind" true (o.Revise.o_kind = Revise.Prior_suffix);
  check "seed was non-empty" true (o.Revise.o_seed_rows > 0);
  check "seed re-winnow is exact" true
    (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
       (cold session
          "SELECT * FROM cars PREFERRING LOWEST(price) PRIOR TO HIGHEST(power)"));
  (* the revised statement became the session's last statement: extending
     the Pareto now goes through the hot-window route *)
  let o =
    Session.refine session
      "(LOWEST(price) PRIOR TO HIGHEST(power)) AND LOWEST(mileage)"
  in
  check_str "pareto route" "refine:hot" o.Revise.o_plan;
  check "pareto extension is exact" true
    (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
       (cold session
          "SELECT * FROM cars PREFERRING (LOWEST(price) PRIOR TO \
           HIGHEST(power)) AND LOWEST(mileage)"));
  (* an unrelated term has no sound seed: cold *)
  let o = Session.refine session "HIGHEST(mileage)" in
  check_str "cold route" "cold" o.Revise.o_plan;
  check "cold is exact" true
    (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
       (cold session "SELECT * FROM cars PREFERRING HIGHEST(mileage)"))

let test_refine_requires_seed () =
  let session = fresh_session () in
  check "no previous statement raises" true
    (try
       ignore (Session.refine session "LOWEST(price)");
       false
     with Pref_sql.Exec.Error _ -> true);
  (* a non-seedable statement (WHERE) does not arm REFINE either *)
  ignore
    (Session.run session
       "SELECT * FROM cars WHERE price <= 15000 PREFERRING LOWEST(price)");
  check "filtered statement is not a seed" true
    (try
       ignore (Session.refine session "LOWEST(price)");
       false
     with Pref_sql.Exec.Error _ -> true)

let test_refine_survives_dml () =
  let session = fresh_session () in
  ignore (Session.run session seed_sql);
  (* DML through the session patches the seed instead of dropping it *)
  ignore (Session.insert session "cars" (car (8_000, 80, 120_000)));
  (match Session.delete session "cars" (car (9_000, 90, 90_000)) with
  | Some _ -> ()
  | None -> Alcotest.fail "delete missed a present row");
  let o = Session.refine session "LOWEST(price) PRIOR TO HIGHEST(power)" in
  check_str "still the seed route" "refine:seed" o.Revise.o_plan;
  check "seed stayed consistent across DML" true
    (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
       (cold session
          "SELECT * FROM cars PREFERRING LOWEST(price) PRIOR TO \
           HIGHEST(power)"));
  (* replacing the table wholesale invalidates the seed: refine runs cold *)
  Session.add_table session "cars" cars;
  check "replaced table disarms refine" true
    (try
       ignore (Session.refine session "LOWEST(price)");
       false
     with Pref_sql.Exec.Error _ -> true)

(* deleting a seed row drops only the seed: the statement stays armed
   and the next refine runs cold, as the router's re-issued statement
   does *)
let test_refine_after_seed_delete () =
  let session = fresh_session () in
  ignore (Session.run session seed_sql);
  (match Session.delete session "cars" (car (9_000, 90, 90_000)) with
  | Some _ -> ()
  | None -> Alcotest.fail "delete missed a present row");
  let sql = "SELECT * FROM cars PREFERRING LOWEST(price) PRIOR TO HIGHEST(power)" in
  let o = Session.refine session "LOWEST(price) PRIOR TO HIGHEST(power)" in
  check_str "cold route" "cold" o.Revise.o_plan;
  check "kind still classified" true (o.Revise.o_kind = Revise.Prior_suffix);
  check "cold refine is exact" true
    (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
       (cold session sql))

let test_refine_explain () =
  let session = fresh_session () in
  ignore (Session.run session seed_sql);
  let text =
    String.concat "\n"
      (Pref_bmo.Explain.Plan.to_text
         (Session.refine_explain session
            "LOWEST(price) PRIOR TO HIGHEST(power)"))
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  check "plan has a refine operator" true (contains text "refine");
  check "plan names the class" true (contains text "prior-suffix");
  check "plan names the route" true (contains text "refine:seed")

(* ------------------------------------------------------------------ *)
(* Property: revision sequences interleaved with DML ≡ from scratch    *)

let atoms = [ "LOWEST(a)"; "HIGHEST(a)"; "LOWEST(b)"; "HIGHEST(b)"; "LOWEST(d)" ]

type step =
  | S_insert of Tuple.t
  | S_delete of Tuple.t
  | S_suffix of string  (* new term = prev PRIOR TO atom *)
  | S_pareto of string  (* new term = prev AND atom *)
  | S_fresh of string  (* unrelated / contracting term *)

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun t -> S_insert t) Gen.tuple);
        (2, map (fun t -> S_delete t) Gen.tuple);
        (2, map (fun a -> S_suffix a) (oneofl atoms));
        (2, map (fun a -> S_pareto a) (oneofl atoms));
        (1, map (fun a -> S_fresh a) (oneofl atoms));
      ])

let pp_step ppf = function
  | S_insert t -> Fmt.pf ppf "insert %a" Tuple.pp t
  | S_delete t -> Fmt.pf ppf "delete %a" Tuple.pp t
  | S_suffix a -> Fmt.pf ppf "refine-suffix %s" a
  | S_pareto a -> Fmt.pf ppf "refine-pareto %s" a
  | S_fresh a -> Fmt.pf ppf "refine-fresh %s" a

let prop_refine_matches_cold =
  QCheck.Test.make ~count:120
    ~name:"Session.refine = from-scratch run over revision/DML sequences"
    (QCheck.make
       QCheck.Gen.(
         triple (oneofl atoms)
           (list_size (int_range 0 12) Gen.tuple)
           (list_size (int_range 1 10) step_gen))
       ~print:(fun (t0, rows, steps) ->
         Fmt.str "start %s, %d rows, [%a]" t0 (List.length rows)
           (Fmt.list ~sep:Fmt.semi pp_step)
           steps))
    (fun (t0, rows, steps) ->
      let session =
        Session.create ~env:[ ("t", Relation.make Gen.schema rows) ] ()
      in
      ignore (Session.run session ("SELECT * FROM t PREFERRING " ^ t0));
      let term = ref t0 in
      List.for_all
        (fun step ->
          match step with
          | S_insert t ->
            ignore (Session.insert session "t" t);
            true
          | S_delete t ->
            ignore (Session.delete session "t" t);
            true
          | S_suffix a | S_pareto a | S_fresh a ->
            let new_term =
              match step with
              | S_suffix _ -> Printf.sprintf "(%s) PRIOR TO %s" !term a
              | S_pareto _ -> Printf.sprintf "(%s) AND %s" !term a
              | _ -> a
            in
            term := new_term;
            let o = Session.refine session new_term in
            let expected =
              (Pref_sql.Exec.run (Session.env session)
                 ("SELECT * FROM t PREFERRING " ^ new_term))
                .Pref_sql.Exec.relation
            in
            Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
              expected)
        steps)

let suite =
  [
    Gen.quick "revise: classifier" test_classify;
    Gen.quick "revise: session routes" test_refine_routes;
    Gen.quick "revise: refine requires a seed" test_refine_requires_seed;
    Gen.quick "revise: seed survives DML" test_refine_survives_dml;
    Gen.quick "revise: refine after deleting a seed row runs cold"
      test_refine_after_seed_delete;
    Gen.quick "revise: EXPLAIN shows the refine node" test_refine_explain;
  ]
  @ Gen.qsuite [ prop_refine_matches_cold ]

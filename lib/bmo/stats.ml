open Pref_relation
open Preferences

(* Naive evaluation: correct even for relations that are not transitive
   (e.g. a disjoint union whose operands are not actually disjoint), where
   window algorithms may misbehave. *)
let result_size_on schema p ~attrs rel =
  let res = Naive.query schema p rel in
  Relation.cardinality (Relation.project_distinct res attrs)

let result_size schema p rel = result_size_on schema p ~attrs:(Pref.attrs p) rel

let stronger_filter schema p1 p2 rel =
  result_size schema p1 rel <= result_size schema p2 rel

let comparisons_of algo schema p rel =
  let plan =
    match algo with `Naive -> Planner.Plan_naive | `Bnl -> Planner.Plan_bnl
  in
  let result, o = Planner.evaluate schema p rel plan in
  (result, o.Planner.o_tests)

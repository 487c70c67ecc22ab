open Pref_relation
open Pref_sql
module Canon = Preferences.Canon

(* Revision of the session's preference term (Chomicki, "Database
   Querying under Changing Preferences").  The classifier compares the
   old and new term through their canonical forms; the executor picks
   the cheapest sound evaluation for the class:

   - prior-suffix refinement P' = P & S: sigma[P'](R) is contained in
     the old BMO set (anything outside it keeps its P-dominator, and
     SV-equivalence is substitutable), so re-winnowing the seed alone
     is exact — the Prop. 10 argument the cache's prior-prefix tier
     makes, without needing the cache to be on.
   - pareto-extend refinement P' = P (x) Q: the new BMO set is NOT a
     subset of the seed (a new dimension resurrects dominated tuples),
     but max[P'](R) = max[P'](max[P'](seed) ∪ rest): evaluating with the
     seed rows first hands the window algorithm a hot window of
     already-maximal tuples, so the scan over the rest degenerates to
     cheap dominance screening.
   - contraction / disjoint revision: no sound seed reuse; run cold
     (the semantic cache tiers still apply when enabled). *)

type kind = Same | Prior_suffix | Pareto_extend | Contraction | Disjoint

let kind_to_string = function
  | Same -> "same"
  | Prior_suffix -> "prior-suffix"
  | Pareto_extend -> "pareto-extend"
  | Contraction -> "contraction"
  | Disjoint -> "disjoint"

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a', y :: b' -> String.equal x y && is_prefix a' b'
  | _ :: _, [] -> false

(* multiset containment over canonical keys (Pareto operands may repeat) *)
let multiset_subset a b =
  let remove_one x l =
    let rec go acc = function
      | [] -> None
      | y :: rest ->
        if String.equal x y then Some (List.rev_append acc rest)
        else go (y :: acc) rest
    in
    go [] l
  in
  let rec go a b =
    match a with
    | [] -> true
    | x :: rest -> (
      match remove_one x b with None -> false | Some b' -> go rest b')
  in
  go a b

let classify ~old_p ~new_p =
  if Canon.equal old_p new_p then Same
  else begin
    let ospine = List.map Canon.key (Canon.prior_spine old_p) in
    let nspine = List.map Canon.key (Canon.prior_spine new_p) in
    if List.length ospine < List.length nspine && is_prefix ospine nspine then
      Prior_suffix
    else if
      List.length nspine < List.length ospine && is_prefix nspine ospine
    then Contraction
    else begin
      let opar = List.map Canon.key (Canon.pareto_operands old_p) in
      let npar = List.map Canon.key (Canon.pareto_operands new_p) in
      if List.length opar < List.length npar && multiset_subset opar npar then
        Pareto_extend
      else if
        List.length npar < List.length opar && multiset_subset npar opar
      then Contraction
      else Disjoint
    end
  end

type outcome = {
  o_result : Exec.result;
  o_kind : kind;
  o_plan : string;
  o_seed_rows : int;
}

let rebind env table rel =
  let table = String.lowercase_ascii table in
  (table, rel) :: List.remove_assoc table env

(* remove one occurrence of every seed row from [rows], preserving order *)
let multiset_diff rows seed =
  List.fold_left
    (fun rows s ->
      let rec go acc = function
        | [] -> List.rev acc
        | r :: rest ->
          if Tuple.equal r s then List.rev_append acc rest
          else go (r :: acc) rest
      in
      go [] rows)
    rows seed

(* the evaluation environment for each revision class: the seed alone,
   the base relation reordered seed-first, or the environment as-is
   (also whenever there is no seed) *)
let revision_env env ~table ~seed kind =
  match (seed, kind) with
  | Some seed, Same -> (rebind env table seed, "refine:same")
  | Some seed, Prior_suffix -> (rebind env table seed, "refine:seed")
  | Some seed, Pareto_extend -> (
    match Exec.find_table env table with
    | Some base ->
      let rest = multiset_diff (Relation.rows base) (Relation.rows seed) in
      let hot = Relation.make (Relation.schema base) (Relation.rows seed @ rest) in
      (rebind env table hot, "refine:hot")
    | None -> (env, "cold"))
  | _ -> (env, "cold")

let seed_rows seed = Option.fold ~none:0 ~some:Relation.cardinality seed

let prefs ?registry ~old_q new_q =
  match
    (Exec.full_preference ?registry old_q, Exec.full_preference ?registry new_q)
  with
  | Some old_p, Some new_p -> Some (old_p, new_p)
  | _ -> None

let execute ?registry ~deadline cfg env ~table ~seed ~old_q new_q =
  let kind =
    match prefs ?registry ~old_q new_q with
    | Some (old_p, new_p) -> classify ~old_p ~new_p
    | None -> Disjoint
  in
  let env', plan = revision_env env ~table ~seed kind in
  let r = Exec.run_query_within ?registry ~deadline cfg env' new_q in
  {
    o_result = r;
    o_kind = kind;
    o_plan = plan;
    o_seed_rows = seed_rows seed;
  }

let explain ?registry ~deadline cfg env ~table ~seed ~old_q ~query_text new_q =
  let kind, dims =
    match prefs ?registry ~old_q new_q with
    | Some (old_p, new_p) ->
      ( classify ~old_p ~new_p,
        List.length (Preferences.Pref.attrs new_p) )
    | None -> (Disjoint, 1)
  in
  let env', plan = revision_env env ~table ~seed kind in
  let seed_rows = seed_rows seed in
  let inner =
    Exec.explain_query_within ?registry ~analyze:false ~deadline cfg env'
      ~query_text new_q
  in
  let w =
    { Pref_bmo.Cost.n = seed_rows; dims = max 1 dims; domains = 1;
      correlation = 0. }
  in
  let refine_op =
    Pref_bmo.Explain.Plan.op "refine" ~rows_in:seed_rows
      ~attrs:
        [
          ("revision", kind_to_string kind);
          ("plan", plan);
          ( "predicted_ms",
            Printf.sprintf "%.3f" (Pref_bmo.Cost.predict_ms ~kind:"refine" w)
          );
        ]
  in
  { inner with Pref_bmo.Explain.Plan.ops = refine_op :: inner.Pref_bmo.Explain.Plan.ops }

(* Calibrated cost model for BMO evaluation alternatives.

   The planner used to pick between its alternatives — sequential BNL/SFS,
   the KLP75 divide & conquer, chunked multi-domain evaluation, cache
   reuse — with fixed thresholds, and the benchmarks caught it picking
   wrong: parallel plans losing 20x at small n to their own spawn
   overhead, semantic cache reconstruction costing 60x a cold run.  This
   module prices every alternative in milliseconds from a small set of
   per-operation constants so {!Planner.choose} can compare them on one
   scale and {!Cache} can refuse a reuse that is predicted to lose.

   The model is deliberately coarse: each plan's cost is (dominant term
   count) x (calibrated per-operation cost).  Output cardinality comes
   from {!Estimate.expected_skyline_size_fast} — the independent-uniform
   expectation — bent by the sampled correlation the planner already
   measures (anti-correlation inflates skylines toward n, positive
   correlation deflates them toward 1) and, when online learning is
   enabled, by the Prop. 13 filter-effect ratios observed on finished
   queries.

   Constants have three sources, in increasing precedence:
   - compiled-in defaults, fitted against BENCH_2026-08-06.json;
   - a calibration file (key=value lines, see {!load}/{!save}; the
     [PREF_COST_CALIBRATION] environment variable names one to load at
     startup) or {!calibrate}, which micro-benchmarks the machine;
   - online refinement: {!observe} folds measured runtimes into a
     per-plan-kind EMA correction factor, clamped to [1/8, 8] so a noisy
     measurement can never invert the model's asymptotics. *)

type constants = {
  c_cmp_ns : float;  (** one dominance test, per dimension *)
  c_row_ns : float;  (** per-row scan / window bookkeeping *)
  c_sort_ns : float;  (** per element per log2 n of sorting *)
  c_dnc_ns : float;  (** divide & conquer, per row per log2 n per extra dim *)
  c_group_ns : float;  (** grouping/partitioning, per row *)
  c_derive_ns : float;  (** semantic-cache reconstruction, per scanned row *)
  c_probe_us : float;  (** one cache-tier probe (hash + fingerprint) *)
  c_par_fixed_us : float;  (** fixed overhead of any parallel plan *)
  c_par_domain_us : float;  (** per-domain spawn + merge overhead *)
  c_par_pessimism : float;  (** multiplier on the parallel scan term *)
  c_shard_rtt_us : float;  (** per-shard scatter dispatch + gather overhead *)
}

let defaults =
  {
    c_cmp_ns = 20.;
    c_row_ns = 40.;
    c_sort_ns = 25.;
    c_dnc_ns = 360.;
    c_group_ns = 60.;
    c_derive_ns = 120.;
    c_probe_us = 20.;
    c_par_fixed_us = 4000.;
    c_par_domain_us = 1500.;
    c_par_pessimism = 1.3;
    (* loopback frame round trip incl. CSV encode/decode of a small
       result; WAN deployments should calibrate this via the file *)
    c_shard_rtt_us = 400.;
  }

let state = ref defaults
let current () = !state
let install c = state := c

(* Per-plan-kind EMA correction factors refined by [observe], and the
   Prop. 13 filter-effect table (dims -> EMA of |sigma[P](R)| / |R|). *)
let factors : (string, float) Hashtbl.t = Hashtbl.create 8
let filter_effect : (int, float) Hashtbl.t = Hashtbl.create 8
let learning_on = ref false
let learning () = !learning_on
let set_learning b = learning_on := b

let reset () =
  state := defaults;
  Hashtbl.reset factors;
  Hashtbl.reset filter_effect;
  learning_on := false

let factor kind = Option.value (Hashtbl.find_opt factors kind) ~default:1.

(* ------------------------------------------------------------------ *)
(* Output-size estimation                                              *)

let clamp lo hi v = Float.min hi (Float.max lo v)

let effective_output ~n ~dims ~correlation =
  if n <= 0 then 0.
  else begin
    let nf = float_of_int n in
    let s = Estimate.expected_skyline_size_fast ~n ~dims in
    let r = clamp (-1.) 1. correlation in
    let analytic =
      if r < 0. then
        (* interpolate between the independent expectation (r = 0) and the
           worst case s = n (r = -1) in log space; the quadratic schedule
           reflects that moderate anti-correlation already produces large
           skylines (a third of a BKS01 anti-correlated input is maximal
           at r ~ -0.45) *)
        let t = (1. +. r) *. (1. +. r) in
        exp ((t *. log s) +. ((1. -. t) *. log nf))
      else if r > 0. then
        (* positive correlation thins the skyline toward a single point *)
        Float.max 1. (Float.pow s (1. -. r))
      else s
    in
    let analytic = clamp 1. nf analytic in
    match Hashtbl.find_opt filter_effect dims with
    | None -> analytic
    | Some ratio ->
      (* geometric blend of the model and the observed filter effect *)
      clamp 1. nf (sqrt (analytic *. Float.max 1. (ratio *. nf)))
  end

(* ------------------------------------------------------------------ *)
(* Plan pricing                                                        *)

type workload = { n : int; dims : int; domains : int; correlation : float }

let ns_to_ms x = x *. 1e-6
let us_to_ms x = x *. 1e-3
let log2f n = if n <= 2 then 1. else log (float_of_int n) /. log 2.

(* The average BNL window over the scan is about half the final result.
   Under anti-correlation most probes end incomparable: neither direction
   of the dominance test can early-exit and the window is scanned to the
   end, so the comparison term grows toward twice the independent case. *)
let scan_ms ~cmp_ns w =
  let n = float_of_int w.n in
  let wbar = (effective_output ~n:w.n ~dims:w.dims ~correlation:w.correlation /. 2.) +. 1. in
  let incomparability = 1. -. Float.min 0. (clamp (-1.) 1. w.correlation) in
  ns_to_ms (cmp_ns *. float_of_int w.dims *. n *. wbar *. incomparability)

(* In the float point form ({!Dominance.points}) a test reads unboxed
   coordinates instead of running the compiled test on rows: on
   independent data the window pass measured about 8x cheaper per test
   and dimension than [c_cmp_ns]. Under anti-correlation the window grows
   toward the whole input, each kept candidate rescans it to evict, and
   divide & conquer or SFS beat the window on either form, so the gain is
   phased out: 1 + 7 (1 + r)^3 for r < 0, which keeps the row prices that
   send r = -0.45 skylines to divide & conquer. The window, filter and
   parallel passes run on the float form; naive and decompose always test
   rows. *)
let float_gain ~correlation =
  1. +. (7. *. Float.pow (1. +. Float.min 0. (clamp (-1.) 1. correlation)) 3.)

let base_ms ?(floats = false) kind w =
  let c = current () in
  let pass_cmp_ns =
    if floats then c.c_cmp_ns /. float_gain ~correlation:w.correlation
    else c.c_cmp_ns
  in
  let n = float_of_int w.n in
  let out = effective_output ~n:w.n ~dims:w.dims ~correlation:w.correlation in
  let sort = ns_to_ms (c.c_sort_ns *. n *. log2f w.n) in
  let par_base d =
    us_to_ms (c.c_par_fixed_us +. (c.c_par_domain_us *. float_of_int d))
  in
  let scan = scan_ms ~cmp_ns:pass_cmp_ns w in
  let par_scan d = c.c_par_pessimism *. scan /. float_of_int d in
  let par_merge d =
    ns_to_ms (pass_cmp_ns *. float_of_int w.dims *. out *. out /. float_of_int d)
  in
  match kind with
  | "naive" -> ns_to_ms (c.c_cmp_ns *. float_of_int w.dims *. n *. n)
  | "bnl" -> scan +. ns_to_ms (c.c_row_ns *. n)
  | "sfs" -> sort +. scan +. ns_to_ms (c.c_row_ns *. n)
  | "dnc" ->
    ns_to_ms
      (c.c_dnc_ns *. n *. log2f w.n *. float_of_int (max 1 (w.dims - 1)))
  | "par_dnc" -> par_base w.domains +. par_scan w.domains +. par_merge w.domains
  | "par_sfs" ->
    par_base w.domains
    +. (sort /. float_of_int w.domains)
    +. par_scan w.domains
    +. (0.5 *. par_merge w.domains)
  | "cascade" ->
    (* one chain pass prunes to a thin slice; the rest is negligible *)
    ns_to_ms ((c.c_cmp_ns +. c.c_row_ns) *. n)
  | "decompose" ->
    (* rule-driven recursion tracks BNL with interpretation overhead *)
    1.25 *. (scan_ms ~cmp_ns:c.c_cmp_ns w +. ns_to_ms (c.c_row_ns *. n))
  | "refine" ->
    (* re-winnow of a cached BMO seed under the refined preference:
       a BNL pass where w.n is the seed size, not the base relation *)
    scan +. ns_to_ms (c.c_row_ns *. n)
  | "delta" ->
    (* one subscription patch: a linear screen of the maintained
       result + shadow rows (w.n) against the updated tuple *)
    ns_to_ms (((c.c_cmp_ns *. float_of_int w.dims) +. c.c_row_ns) *. n)
  | _ -> invalid_arg ("Cost.predict_ms: unknown plan kind " ^ kind)

let predict_ms ?floats ~kind w = factor kind *. base_ms ?floats kind w

(* ------------------------------------------------------------------ *)
(* Cache-side pricing                                                  *)

let probe_overhead_ms () = us_to_ms (current ()).c_probe_us

(* prior-prefix and dunion-inter derivations operate on the cached result
   sets, never on the base relation — strictly cheaper than any cold run. *)
let derive_prior_ms ~rows ~dims =
  let c = current () in
  ns_to_ms
    (float_of_int rows
    *. (c.c_group_ns +. (c.c_cmp_ns *. float_of_int (max 1 dims) *. 4.)))

let derive_dunion_ms ~rows =
  ns_to_ms ((current ()).c_row_ns *. float_of_int rows)

(* pareto-restrict reconstruction re-groups the FULL base relation and
   re-filters against it: its overhead on top of a cold evaluation. *)
let derive_pareto_overhead_ms ~n =
  let c = current () in
  ns_to_ms (float_of_int n *. (c.c_group_ns +. c.c_derive_ns))

(* A reconstruction predicted to cost at most this much more than the
   cheapest cold plan is still allowed: at tiny n the model's resolution
   is below scheduling noise and refusing reuse would be pure loss. *)
let semantic_gate_slack_ms = 0.5

(* ------------------------------------------------------------------ *)
(* Scatter-gather pricing                                              *)

(* Partition-wise evaluation (Props. 8/10/12): per-shard sigma[P] runs in
   parallel, so the scatter phase costs the slowest shard; the gather
   phase pays one dispatch round trip per shard plus a final BNL pass
   over the union of the per-shard BMO sets. *)

let shard_overhead_ms ~shards =
  us_to_ms ((current ()).c_shard_rtt_us *. float_of_int (max 0 shards))

let merge_ms ~rows ~dims =
  if rows <= 0 then 0.
  else
    predict_ms ~kind:"bnl"
      { n = rows; dims = max 1 dims; domains = 1; correlation = 0. }

type scatter_gather = {
  sg_shards : int;
  sg_slowest_ms : float;  (** max over the per-shard predictions *)
  sg_dispatch_ms : float;  (** fan-out/fan-in round trips *)
  sg_merge_ms : float;  (** final BNL pass; 0 when the merge is skipped *)
  sg_total_ms : float;
}

let scatter_gather_ms ~per_shard_ms ~merge_rows ~dims ~merge =
  let shards = List.length per_shard_ms in
  let slowest = List.fold_left Float.max 0. per_shard_ms in
  let dispatch = shard_overhead_ms ~shards in
  let merge_cost = if merge then merge_ms ~rows:merge_rows ~dims else 0. in
  {
    sg_shards = shards;
    sg_slowest_ms = slowest;
    sg_dispatch_ms = dispatch;
    sg_merge_ms = merge_cost;
    sg_total_ms = slowest +. dispatch +. merge_cost;
  }

(* ------------------------------------------------------------------ *)
(* Online refinement                                                   *)

let ema_alpha = 0.2
let clamp_factor = clamp 0.125 8.

let observe ?floats ~kind w ~ms =
  match base_ms ?floats kind w with
  | base when base > 1e-6 && ms >= 0. ->
    let prev = factor kind in
    let next = ((1. -. ema_alpha) *. prev) +. (ema_alpha *. (ms /. base)) in
    Hashtbl.replace factors kind (clamp_factor next)
  | _ -> ()
  | exception Invalid_argument _ -> ()

let observe_filter ~dims ~n_in ~n_out =
  if n_in > 0 && n_out >= 0 then begin
    let ratio = float_of_int n_out /. float_of_int n_in in
    let next =
      match Hashtbl.find_opt filter_effect dims with
      | None -> ratio
      | Some prev -> ((1. -. ema_alpha) *. prev) +. (ema_alpha *. ratio)
    in
    Hashtbl.replace filter_effect dims (clamp 0. 1. next)
  end

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)

let time_ns f =
  let t0 = Pref_obs.Clock.now_ns () in
  let reps = f () in
  let elapsed = Pref_obs.Clock.elapsed_ms ~since:t0 in
  elapsed *. 1e6 /. float_of_int (max 1 reps)

let clamp_near default v =
  if Float.is_nan v || v <= 0. then default
  else clamp (default /. 8.) (default *. 8.) v

(* Micro-benchmark the scan-side constants; the parallel overheads keep
   their defaults (spawning domain pools from a calibration probe would
   perturb the very pool the engine is about to use). *)
let calibrate () =
  let d = defaults in
  let n = 20000 in
  let xs = Array.init n (fun i -> float_of_int ((i * 7919) mod n)) in
  let cmp_ns =
    time_ns (fun () ->
        let acc = ref 0 in
        for i = 0 to n - 2 do
          if xs.(i) <= xs.(i + 1) then incr acc
        done;
        ignore !acc;
        n - 1)
  in
  let row_ns =
    time_ns (fun () ->
        let acc = ref 0. in
        for i = 0 to n - 1 do
          acc := !acc +. xs.(i)
        done;
        ignore !acc;
        n)
  in
  let sort_ns =
    time_ns (fun () ->
        let ys = Array.copy xs in
        Array.sort compare ys;
        int_of_float (float_of_int n *. log2f n))
  in
  let c =
    {
      d with
      c_cmp_ns = clamp_near d.c_cmp_ns (cmp_ns *. 8.);
      c_row_ns = clamp_near d.c_row_ns (row_ns *. 8.);
      c_sort_ns = clamp_near d.c_sort_ns sort_ns;
    }
  in
  install c;
  c

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let to_assoc () =
  let c = current () in
  let base =
    [
      ("c_cmp_ns", c.c_cmp_ns);
      ("c_row_ns", c.c_row_ns);
      ("c_sort_ns", c.c_sort_ns);
      ("c_dnc_ns", c.c_dnc_ns);
      ("c_group_ns", c.c_group_ns);
      ("c_derive_ns", c.c_derive_ns);
      ("c_probe_us", c.c_probe_us);
      ("c_par_fixed_us", c.c_par_fixed_us);
      ("c_par_domain_us", c.c_par_domain_us);
      ("c_par_pessimism", c.c_par_pessimism);
      ("c_shard_rtt_us", c.c_shard_rtt_us);
    ]
  in
  let learned =
    Hashtbl.fold (fun k v acc -> ("factor." ^ k, v) :: acc) factors []
  in
  base @ List.sort compare learned

let save path =
  try
    let oc = open_out path in
    List.iter (fun (k, v) -> Printf.fprintf oc "%s=%.6g\n" k v) (to_assoc ());
    close_out oc;
    Ok ()
  with Sys_error msg -> Error msg

let apply_kv c (k, v) =
  match k with
  | "c_cmp_ns" -> { c with c_cmp_ns = v }
  | "c_row_ns" -> { c with c_row_ns = v }
  | "c_sort_ns" -> { c with c_sort_ns = v }
  | "c_dnc_ns" -> { c with c_dnc_ns = v }
  | "c_group_ns" -> { c with c_group_ns = v }
  | "c_derive_ns" -> { c with c_derive_ns = v }
  | "c_probe_us" -> { c with c_probe_us = v }
  | "c_par_fixed_us" -> { c with c_par_fixed_us = v }
  | "c_par_domain_us" -> { c with c_par_domain_us = v }
  | "c_par_pessimism" -> { c with c_par_pessimism = v }
  | "c_shard_rtt_us" -> { c with c_shard_rtt_us = v }
  | _ ->
    if String.length k > 7 && String.sub k 0 7 = "factor." then
      Hashtbl.replace factors
        (String.sub k 7 (String.length k - 7))
        (clamp_factor v);
    c

let load path =
  try
    let ic = open_in path in
    let rec go c =
      match input_line ic with
      | exception End_of_file -> c
      | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go c
        else
          match String.index_opt line '=' with
          | None -> go c
          | Some i -> (
            let k = String.trim (String.sub line 0 i) in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt (String.trim v) with
            | None -> go c
            | Some v when v > 0. -> go (apply_kv c (k, v))
            | Some _ -> go c))
    in
    let c = go (current ()) in
    close_in ic;
    install c;
    Ok c
  with Sys_error msg -> Error msg

let () =
  match Sys.getenv_opt "PREF_COST_CALIBRATION" with
  | Some path when Sys.file_exists path -> ignore (load path)
  | _ -> ()

(* Parallel BMO evaluation over a reusable {!Pool} of domains.

   Divide-and-conquer skyline: split the input into P contiguous chunks,
   run the window pass ({!Bnl.window}) on each chunk in its own domain,
   then merge the chunk windows pairwise, filtering out cross-chunk
   dominated tuples.  Correct for every strict partial order:
   in a finite SPO every dominated tuple is dominated by some *maximal*
   tuple (domination chains are finite and transitivity closes them), so
   filtering chunk-local maxima against the other chunks' maxima is exact.

   Parallel SFS: over points presorted in SFS order, the append-only
   filter pass ({!Sfs.filter}) is split — each chunk filters locally, and
   in a second parallel phase chunk k drops its survivors dominated by a local
   survivor of any chunk before it (sound because SFS windows never evict:
   any cross-chunk dominator is, transitively, represented by a surviving
   one). *)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let default_domains_ref = ref (max 1 (Domain.recommended_domain_count ()))
let default_domains () = !default_domains_ref

let set_default_domains n =
  if n < 1 then invalid_arg "Parallel.set_default_domains: need >= 1";
  default_domains_ref := n

(* One cached pool, rebuilt when the requested size changes. Spawning
   domains costs far more than a skyline chunk, so reuse matters. *)
let pool_cache : (int * Pool.t) option ref = ref None

(* Serialises lookup/create/shutdown of the cached pool: concurrent server
   domains asking for the same size share one pool; a size change swaps the
   pool atomically (callers that already hold the old pool finish their
   in-flight batch before [shutdown] joins it — queued batches drain
   first). *)
let pool_mutex = Mutex.create ()

let pool_for domains =
  Mutex.lock pool_mutex;
  let p =
    match !pool_cache with
    | Some (d, p) when d = domains -> p
    | prev ->
      (match prev with Some (_, p) -> Pool.shutdown p | None -> ());
      let p = Pool.create ~domains in
      pool_cache := Some (domains, p);
      p
  in
  Mutex.unlock pool_mutex;
  p

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

type chunk_stat = { c_rows : int; c_out : int; c_tests : int; c_domain : int }

type stats = {
  s_domains : int;
  s_chunks : chunk_stat array;
  s_local_ms : float;
  s_merge_ms : float;
  s_merge_tests : int;
}

let total_tests st =
  Array.fold_left (fun acc c -> acc + c.c_tests) st.s_merge_tests st.s_chunks

let stats_attrs st =
  [
    ("domains", string_of_int st.s_domains);
    ( "chunk_rows",
      String.concat ","
        (Array.to_list (Array.map (fun c -> string_of_int c.c_rows) st.s_chunks))
    );
    ( "chunk_out",
      String.concat ","
        (Array.to_list (Array.map (fun c -> string_of_int c.c_out) st.s_chunks))
    );
    ( "chunk_tests",
      String.concat ","
        (Array.to_list (Array.map (fun c -> string_of_int c.c_tests) st.s_chunks))
    );
    ("merge_tests", string_of_int st.s_merge_tests);
    ("local_ms", Printf.sprintf "%.3f" st.s_local_ms);
    ("merge_ms", Printf.sprintf "%.3f" st.s_merge_ms);
  ]

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)

(* Merging works on point indices; [dominates i j] tests points i, j. *)

(* Keep the indices of [xs] not dominated by any index of [against]. *)
let filter_against ~dominates ~tests xs against =
  let m = Array.length against in
  if m = 0 then xs
  else
    Array.of_list
      (List.filter
         (fun x ->
           let dominated = ref false in
           let j = ref 0 in
           while (not !dominated) && !j < m do
             incr tests;
             if dominates (Array.unsafe_get against !j) x then dominated := true
             else incr j
           done;
           not !dominated)
         (Array.to_list xs))

(* Pairwise merge in chunk order. Filtering [part] against the already
   thinned [acc'] (rather than [acc]) is equivalent: an evicted [a] was
   dominated by some surviving point, which by transitivity also dominates
   whatever [a] dominated. *)
let merge_windows ~dominates ~tests parts =
  Array.fold_left
    (fun acc part ->
      if Array.length acc = 0 then part
      else begin
        let acc' = filter_against ~dominates ~tests acc part in
        let part' = filter_against ~dominates ~tests part acc' in
        Array.append acc' part'
      end)
    [||] parts

(* Phase 1 of both strategies: [pass] over each contiguous chunk in its own
   domain, local survivor indices shifted to global ones. The points are
   materialised once up front: the merge tests chunk survivors again. *)
let local_phase ~pool ~chunks pass pts =
  let doms = Array.make (Array.length chunks) 0 in
  let locals, local_ms =
    Pref_obs.Span.timed (fun () ->
        Pool.map pool
          (fun i ->
            let off, len = chunks.(i) in
            doms.(i) <- Pool.self ();
            let idx, run = pass len (fun j -> Array.unsafe_get pts (off + j)) in
            (Array.map (( + ) off) idx, run.Bnl.tests))
          (Array.init (Array.length chunks) Fun.id))
  in
  (Array.map fst locals, Array.map snd locals, doms, local_ms)

let stats_of ~pool ~chunks ~survivors ~tests ~doms ~local_ms ~merge_ms
    ~merge_tests =
  {
    s_domains = Pool.size pool;
    s_chunks =
      Array.mapi
        (fun i (_, len) ->
          {
            c_rows = len;
            c_out = Array.length survivors.(i);
            c_tests = tests.(i);
            c_domain = doms.(i);
          })
        chunks;
    s_local_ms = local_ms;
    s_merge_ms = merge_ms;
    s_merge_tests = merge_tests;
  }

(* ------------------------------------------------------------------ *)
(* Parallel divide-and-conquer skyline                                 *)

let maxima_dnc ~domains dom n point =
  let domains = max 1 domains in
  let pts = Array.init n point in
  let chunks = Pool.chunks ~domains n in
  let pool = pool_for domains in
  let locals, tests, doms, local_ms =
    local_phase ~pool ~chunks (Bnl.window dom) pts
  in
  let merge_tests = ref 0 in
  let dominates i j = dom (Array.unsafe_get pts i) (Array.unsafe_get pts j) in
  let merged, merge_ms =
    Pref_obs.Span.timed (fun () ->
        merge_windows ~dominates ~tests:merge_tests locals)
  in
  ( merged,
    stats_of ~pool ~chunks ~survivors:locals ~tests ~doms ~local_ms ~merge_ms
      ~merge_tests:!merge_tests )

(* ------------------------------------------------------------------ *)
(* Parallel sort-filter skyline                                        *)

let maxima_sfs ~domains dom n point =
  let domains = max 1 domains in
  let pts = Array.init n point in
  let chunks = Pool.chunks ~domains n in
  let pool = pool_for domains in
  let locals, tests, doms, local_ms =
    local_phase ~pool ~chunks (Sfs.filter dom) pts
  in
  let dominates i j = dom (Array.unsafe_get pts i) (Array.unsafe_get pts j) in
  (* Phase 2: drop chunk k's survivors dominated by a local survivor of
     any earlier chunk. Sound because phase-1 windows never evict: a
     cross-chunk dominator that was itself filtered out is dominated by a
     survivor, which dominates transitively. *)
  let k = Array.length chunks in
  let merge_tests_per = Array.init k (fun _ -> ref 0) in
  let survivors, merge_ms =
    Pref_obs.Span.timed (fun () ->
        Pool.map pool
          (fun i ->
            Array.fold_left
              (fun part earlier ->
                filter_against ~dominates ~tests:merge_tests_per.(i) part
                  earlier)
              locals.(i)
              (Array.sub locals 0 i))
          (Array.init k Fun.id))
  in
  (* Concatenation in chunk order = SFS order, the same output order as
     sequential SFS. *)
  ( Array.concat (Array.to_list survivors),
    stats_of ~pool ~chunks ~survivors ~tests ~doms ~local_ms ~merge_ms
      ~merge_tests:(Array.fold_left (fun a r -> a + !r) 0 merge_tests_per) )

(* Presorted input: no later point can dominate an earlier one, so window
   points are never evicted and each candidate is only checked against the
   current window — one append-only array probed by a flat loop, grown
   like {!Bnl.window}'s. [admit t] runs that check for [t], appends it when
   it survives and reports whether it did; {!filter} drives it over the
   whole input, {!progressive} one pull at a time. *)
let admitter dom first tests =
  let window = ref (Array.make Bnl.initial_window first) and size = ref 0 in
  fun t ->
    let win = !window in
    let dominated = ref false in
    let i = ref 0 in
    while (not !dominated) && !i < !size do
      incr tests;
      if dom (Array.unsafe_get win !i) t then dominated := true else incr i
    done;
    if not !dominated then begin
      if !size = Array.length win then window := Array.append win win;
      Array.unsafe_set !window !size t;
      incr size
    end;
    not !dominated

let filter ?(deadline = Engine.no_deadline) dom n point =
  let tests = ref 0 and kept = ref [] and timed_out = ref false in
  if n > 0 then begin
    let admit = admitter dom (point 0) tests in
    let polled = Engine.has_deadline deadline in
    let k = ref 0 in
    while !k < n && not !timed_out do
      if
        polled
        && !k land (Bnl.deadline_stride - 1) = 0
        && Engine.expired deadline
      then timed_out := true
      else begin
        if admit (point !k) then kept := !k :: !kept;
        incr k
      end
    done
  end;
  let kept = Array.of_list (List.rev !kept) in
  (kept, { Bnl.tests = !tests; peak = Array.length kept; timed_out = !timed_out })

let progressive schema p rows =
  match Dominance.points ~presort:true schema p (Array.of_list rows) with
  | Points { rows; point; dom } ->
    let n = Array.length rows in
    if n = 0 then Seq.empty
    else
      let admit = admitter dom (point 0) (ref 0) in
      Seq.filter_map
        (fun k -> if admit (point k) then Some rows.(k) else None)
        (Seq.init n Fun.id)

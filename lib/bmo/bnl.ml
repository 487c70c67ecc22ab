open Pref_relation

(* Window of mutually undominated points seen so far.  With unbounded
   memory no temporary file is needed, so a single pass suffices (the
   in-memory special case of block-nested-loops from the skyline paper).

   The window is two parallel flat arrays — the points, read by every
   test, and their input indices — so the scan is two flat loops (probe
   for a dominator, then compact out evicted points in place) that
   allocate nothing per candidate. The arrays start small and double when
   full: most windows stay tiny, so the pass does not pay for two
   input-sized arrays. *)

let initial_window = 64

type run = { tests : int; peak : int; timed_out : bool }

let deadline_stride = 128

let window ?(deadline = Engine.no_deadline) dom n point =
  if n = 0 then
    ([||], { tests = 0; peak = 0; timed_out = Engine.expired deadline })
  else begin
    let window_pts = ref (Array.make (min n initial_window) (point 0))
    and window_idx = ref (Array.make (min n initial_window) 0) in
    let size = ref 0 and peak = ref 0 and tests = ref 0 in
    let polled = Engine.has_deadline deadline in
    let timed_out = ref false in
    let k = ref 0 in
    while !k < n && not !timed_out do
      if polled && !k land (deadline_stride - 1) = 0 && Engine.expired deadline
      then timed_out := true
      else begin
        let t = point !k and win = !window_pts and idx = !window_idx in
        let dominated = ref false in
        let i = ref 0 in
        while (not !dominated) && !i < !size do
          incr tests;
          if dom (Array.unsafe_get win !i) t then dominated := true else incr i
        done;
        if not !dominated then begin
          let j = ref 0 in
          for i = 0 to !size - 1 do
            let w = Array.unsafe_get win i in
            incr tests;
            if not (dom t w) then begin
              Array.unsafe_set win !j w;
              Array.unsafe_set idx !j (Array.unsafe_get idx i);
              incr j
            end
          done;
          if !j = Array.length win then begin
            window_pts := Array.append win win;
            window_idx := Array.append idx idx
          end;
          Array.unsafe_set !window_pts !j t;
          Array.unsafe_set !window_idx !j !k;
          size := !j + 1;
          if !size > !peak then peak := !size
        end;
        incr k
      end
    done;
    ( Array.sub !window_idx 0 !size,
      { tests = !tests; peak = !peak; timed_out = !timed_out } )
  end

let maxima (dom : Dominance.t) rows =
  let rows = Array.of_list rows in
  let idx, _ = window dom (Array.length rows) (Array.get rows) in
  Array.to_list (Array.map (Array.get rows) idx)

let query schema p rel =
  match Dominance.points schema p (Array.of_list (Relation.rows rel)) with
  | Points { rows; point; dom } ->
    let idx, _ = window dom (Array.length rows) point in
    Relation.make (Relation.schema rel)
      (Array.to_list (Array.map (Array.get rows) idx))

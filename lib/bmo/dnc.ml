(* Maxima of a set of d-dimensional float vectors, every coordinate to be
   maximised, over point indices. *)

let threshold = 32

let maxima (pts : float array array) =
  let dominates i j = Dominance.floats_dominate pts.(i) pts.(j) in
  let naive_maxima idxs =
    List.filter (fun i -> not (List.exists (fun j -> dominates j i) idxs)) idxs
  in
  let rec go idxs =
    let n = List.length idxs in
    if n <= threshold then naive_maxima idxs
    else
      (* Split on the first coordinate at a value boundary near the median
         so the two halves are strictly separated: no low-half point can
         dominate a high-half point. *)
      let sorted =
        List.stable_sort (fun i j -> Float.compare pts.(j).(0) pts.(i).(0)) idxs
      in
      let pivot = pts.(List.nth sorted (n / 2)).(0) in
      let high, low = List.partition (fun i -> pts.(i).(0) > pivot) sorted in
      if high = [] || low = [] then
        (* All points share the first coordinate value near the median; a
           strict split is impossible, fall back to the quadratic base
           case. *)
        naive_maxima idxs
      else
        let mh = go high in
        (* A point of the low half survives iff no maximal high point
           dominates it (high points cannot be dominated by low points). *)
        mh
        @ List.filter
            (fun i -> not (List.exists (fun j -> dominates j i) mh))
            (go low)
  in
  let n = Array.length pts in
  let keep = Array.make n false in
  List.iter (fun i -> keep.(i) <- true) (go (List.init n Fun.id));
  (* input order, for deterministic comparisons with other algorithms *)
  Array.of_list (List.filter (Array.get keep) (List.init n Fun.id))

(* Branch & bound skyline over a kd-tree (BBS-style, adapted from R-trees to
   kd bounding boxes).  All coordinates are maximised.

   Entries are processed best-first by the sum of their upper corner.  Every
   dominator of a point p has a strictly larger coordinate sum, and every
   ancestor entry of that dominator has an upper corner at least as large,
   so all of p's potential dominators (or entries containing them) leave the
   queue before p: a popped, undominated point is definitely skyline. *)

type stats = {
  nodes_visited : int;  (** split nodes expanded *)
  points_tested : int;  (** points compared against the partial skyline *)
  pruned_subtrees : int;  (** subtrees discarded by one dominance test *)
}

let dominates = Dominance.floats_dominate

let sum = Array.fold_left ( +. ) 0.

let skyline_indices tree =
  let points = Kdtree.points tree in
  let queue = Heap.create () in
  let skyline = ref [] in
  let nodes = ref 0 and tested = ref 0 and pruned = ref 0 in
  let upper node = snd (Kdtree.node_bbox points node) in
  let dominated_by_skyline corner =
    List.exists (fun i -> dominates points.(i) corner) !skyline
  in
  Heap.push queue (sum (upper (Kdtree.root tree))) (`Node (Kdtree.root tree));
  let rec drain () =
    match Heap.pop queue with
    | None -> ()
    | Some (_, entry) ->
      (match entry with
      | `Node node ->
        let _, corner = Kdtree.node_bbox points node in
        if dominated_by_skyline corner then incr pruned
        else begin
          match node with
          | Kdtree.Leaf idxs ->
            Array.iter
              (fun i -> Heap.push queue (sum points.(i)) (`Point i))
              idxs
          | Kdtree.Split s ->
            incr nodes;
            Heap.push queue (sum (upper s.left)) (`Node s.left);
            Heap.push queue (sum (upper s.right)) (`Node s.right)
        end
      | `Point i ->
        incr tested;
        if not (dominated_by_skyline points.(i)) then skyline := i :: !skyline);
      drain ()
  in
  drain ();
  ( List.rev !skyline,
    { nodes_visited = !nodes; points_tested = !tested; pruned_subtrees = !pruned }
  )

let maxima (points : float array array) =
  if Array.length points = 0 then
    ([||], { nodes_visited = 0; points_tested = 0; pruned_subtrees = 0 })
  else begin
    let idxs, stats = skyline_indices (Kdtree.build points) in
    (* input order, keeping duplicates of maximal vectors: equal vectors
       never dominate each other, so every duplicate of a skyline vector
       was itself reported by the traversal *)
    let keep = Array.make (Array.length points) false in
    List.iter (fun i -> keep.(i) <- true) idxs;
    ( Array.of_list
        (List.filter (Array.get keep) (List.init (Array.length points) Fun.id)),
      stats )
  end

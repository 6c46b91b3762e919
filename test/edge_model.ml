(* Reference model of a round's edge set: a balanced tree of canonical
   endpoint pairs [(u, v)], [u < v].  Graphs store their edges as sorted
   packed keys; the tests rebuild the same sets here, by the set algebra
   the paper defines them with, and compare the two. *)

module Edge_set = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) = if a <> c then Int.compare a c else Int.compare b d
end)

let pair u v =
  if u = v then invalid_arg "Edge_model.pair: self-loop";
  if u < v then (u, v) else (v, u)

let add_pair u v s = Edge_set.add (pair u v) s
let mem_pair u v s = Edge_set.mem (pair u v) s

let of_graph g =
  let n = Dynet.Graph.n g in
  Array.fold_left
    (fun acc key -> Edge_set.add (key / n, key mod n) acc)
    Edge_set.empty (Dynet.Graph.edges g)

(* Set order is lexicographic on the pairs, i.e. ascending key order. *)
let keys ~n s =
  Array.of_list (List.map (fun (u, v) -> (u * n) + v) (Edge_set.elements s))

let graph ~n s = Dynet.Graph.make ~n (keys ~n s)

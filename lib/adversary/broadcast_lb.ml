open Dynet

type t = {
  n : int;
  k : int;
  (* k_prime.(v).(i) = token i ∈ K'_v *)
  k_prime : bool array array;
  mutable history : (int * int) list;  (* newest first *)
}

let create ~rng ~n ~k =
  if n < 1 then invalid_arg "Broadcast_lb.create: n must be >= 1";
  if k < 1 then invalid_arg "Broadcast_lb.create: k must be >= 1";
  let k_prime =
    Array.init n (fun _ -> Array.init k (fun _ -> Rng.bernoulli rng 0.25))
  in
  { n; k; k_prime; history = [] }

let n t = t.n
let k t = t.k
let in_k_prime t v i = t.k_prime.(v).(i)

let k_prime_size t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) acc row)
    0 t.k_prime

type view = {
  knows : Node_id.t -> int -> bool;
  chosen : int option array;
}

(* Token i is "covered" at v if learning it would not grow |K_v ∪ K'_v|. *)
let covered t view v i = t.k_prime.(v).(i) || view.knows v i

(* Edge {u,v} is free iff each endpoint's broadcast (if any) is covered
   at the other endpoint. *)
let free t view u v =
  let one_way a b =
    match view.chosen.(a) with None -> true | Some i -> covered t view b i
  in
  one_way u v && one_way v u

let next_graph t view =
  if Array.length view.chosen <> t.n then
    invalid_arg "Broadcast_lb.next_graph: view has wrong node count";
  let uf = Union_find.create t.n in
  let edges = Edge_table.create ~n:t.n ~size_hint:t.n () in
  let connect u v =
    if Union_find.union uf u v then Edge_table.add_pair edges u v
  in
  (* Silent nodes form a free clique (Lemma 2.2's B̄): a spanning star
     on them suffices. *)
  let silent_hub = ref (-1) in
  let broadcasters = ref [] in
  for v = 0 to t.n - 1 do
    match view.chosen.(v) with
    | None ->
        if !silent_hub < 0 then silent_hub := v else connect !silent_hub v
    | Some _ -> broadcasters := v :: !broadcasters
  done;
  (* Free edges incident to a broadcaster: O(|B|·n) freeness checks. *)
  List.iter
    (fun u ->
      for v = 0 to t.n - 1 do
        if v <> u && not (Union_find.same uf u v) then
          if free t view u v then connect u v
      done)
    !broadcasters;
  let free_components = Union_find.count uf in
  (* Connect the remaining components with the minimum number of
     (non-free) edges: each adds at most 2 token learnings. *)
  (match Union_find.representatives uf with
  | [] | [ _ ] -> ()
  | first :: rest ->
      ignore
        (List.fold_left
           (fun prev rep ->
             Edge_table.add_pair edges prev rep;
             rep)
           first rest));
  t.history <- (List.length !broadcasters, free_components) :: t.history;
  Graph.of_table edges

let history t = List.rev t.history

let phi t ~knows =
  let total = ref 0 in
  for v = 0 to t.n - 1 do
    for i = 0 to t.k - 1 do
      if t.k_prime.(v).(i) || knows v i then incr total
    done
  done;
  !total

let to_engine t ~knows ~token_of ~round:_ ~prev:_ ~states ~intents =
  let view =
    {
      knows = (fun v i -> knows states.(v) i);
      chosen = Array.map (fun m -> Option.bind m token_of) intents;
    }
  in
  next_graph t view

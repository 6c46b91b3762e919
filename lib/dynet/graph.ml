open Ops

(* The snapshot is a sorted array of packed edge keys (key = u*n + v
   for the canonical u < v; see Edge_table) plus the precomputed
   adjacency. *)
type t = { n : int; keys : int array; adj : Node_id.t array array }

(* Packed keys sort lexicographically on the canonical endpoints
   (u, v).  One ascending scan therefore fills every row in order:
   row w receives its smaller-side neighbors u (from keys
   (u, w), all below any key (w, _)) before its larger-side ones, so
   no row needs a sort.  Ascending keys also visit the rows u in order,
   so u is found by stepping a row boundary forward instead of dividing
   each key by n.  The first scan checks that the keys are strictly
   ascending and canonical. *)
let adjacency_of_keys n keys =
  let bad () =
    invalid_arg
      "Graph.make: keys must be strictly ascending canonical packed edges"
  in
  let m = Array.length keys in
  let deg = Array.make n 0 in
  let u = ref 0 and base = ref 0 in
  for i = 0 to m - 1 do
    let key = keys.(i) in
    if key >= n * n || (i > 0 && key <= keys.(i - 1)) then bad ();
    while key - !base >= n do
      incr u;
      base := !base + n
    done;
    let v = key - !base in
    if v <= !u then bad ();
    deg.(!u) <- deg.(!u) + 1;
    deg.(v) <- deg.(v) + 1
  done;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let next = Array.make n 0 in
  u := 0;
  base := 0;
  for i = 0 to m - 1 do
    let key = keys.(i) in
    while key - !base >= n do
      incr u;
      base := !base + n
    done;
    let r = !u and v = key - !base in
    adj.(r).(next.(r)) <- v;
    next.(r) <- next.(r) + 1;
    adj.(v).(next.(v)) <- r;
    next.(v) <- next.(v) + 1
  done;
  adj

let make ~n keys =
  if n < 0 then invalid_arg "Graph.make: negative n";
  { n; keys; adj = adjacency_of_keys n keys }

let of_table table =
  make ~n:(Edge_table.n table) (Edge_table.sorted_keys table)

let empty ~n = make ~n [||]
let n t = t.n
let edges t = t.keys
let edge_count t = Array.length t.keys

let mem_key keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length keys && keys.(!lo) = key

let mem_edge t u v =
  u <> v
  && u >= 0 && v >= 0 && u < t.n && v < t.n
  &&
  let u, v = if u < v then (u, v) else (v, u) in
  mem_key t.keys ((u * t.n) + v)

let neighbors t v = t.adj.(v)
let degree t v = Array.length t.adj.(v)

let max_degree t =
  Array.fold_left (fun acc row -> max acc (Array.length row)) 0 t.adj

let iter_pairs f t =
  Array.iter (fun key -> f (key / t.n) (key mod t.n)) t.keys

let delta_counts ~prev ~cur =
  if prev.n <> cur.n then invalid_arg "Graph.delta_counts: node counts differ";
  if prev == cur || prev.keys == cur.keys then (0, 0)
  else begin
    (* Merge walk over two sorted key arrays. *)
    let a = prev.keys and b = cur.keys in
    let la = Array.length a and lb = Array.length b in
    let i = ref 0 and j = ref 0 in
    let removed = ref 0 and inserted = ref 0 in
    while !i < la && !j < lb do
      let ka = a.(!i) and kb = b.(!j) in
      if ka = kb then begin incr i; incr j end
      else if ka < kb then begin incr removed; incr i end
      else begin incr inserted; incr j end
    done;
    removed := !removed + (la - !i);
    inserted := !inserted + (lb - !j);
    (!inserted, !removed)
  end

let same_edges a b =
  a == b || (a.n = b.n && (a.keys == b.keys || int_array_equal a.keys b.keys))

let bfs t root =
  let dist = Array.make t.n max_int in
  let parent = Array.make t.n None in
  let q = Queue.create () in
  dist.(root) <- 0;
  Queue.add root q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          parent.(w) <- Some v;
          Queue.add w q
        end)
      t.adj.(v)
  done;
  (parent, dist)

let bfs_tree t root =
  let parent, _ = bfs t root in
  parent

let distances t root =
  let _, dist = bfs t root in
  dist

let components t =
  let uf = Union_find.create t.n in
  iter_pairs (fun u v -> ignore (Union_find.union uf u v)) t;
  uf

let component_count t = Union_find.count (components t)
let is_connected t = t.n <= 1 || component_count t = 1

let eccentricity t v =
  if not (is_connected t) then
    invalid_arg "Graph.eccentricity: disconnected graph";
  Array.fold_left max 0 (distances t v)

let diameter t =
  if not (is_connected t) then invalid_arg "Graph.diameter: disconnected graph";
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    best := max !best (eccentricity t v)
  done;
  !best

let connect_components t =
  (* The representatives ascend, so the chain's keys do too. *)
  match Union_find.representatives (components t) with
  | [] | [ _ ] -> [||]
  | first :: rest ->
      let keys = Array.make (List.length rest) 0 in
      ignore
        (List.fold_left
           (fun (i, prev) rep ->
             keys.(i) <- (prev * t.n) + rep;
             (i + 1, rep))
           (0, first) rest);
      keys

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: node counts differ";
  make ~n:a.n
    (Edge_table.merge_keys a.keys (Array.length a.keys) b.keys
       (Array.length b.keys))

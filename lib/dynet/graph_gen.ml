open Ops

(* Every builder hands Graph ascending packed keys.  The static
   builders and the random trees append to an Edge_table, which sorts
   only when the appends arrived out of order; random_connected emits
   its keys in ascending order as it draws them. *)

let table ~n ?size_hint () = Edge_table.create ~n ?size_hint ()

let path ~n =
  let t = table ~n ~size_hint:n () in
  for i = 0 to n - 2 do
    Edge_table.add_pair t i (i + 1)
  done;
  Graph.of_table t

let cycle ~n =
  if n < 3 then path ~n
  else begin
    let t = table ~n ~size_hint:n () in
    for i = 0 to n - 2 do
      Edge_table.add_pair t i (i + 1)
    done;
    Edge_table.add_pair t (n - 1) 0;
    Graph.of_table t
  end

let star ~n =
  let t = table ~n ~size_hint:n () in
  for i = 1 to n - 1 do
    Edge_table.add_pair t 0 i
  done;
  Graph.of_table t

let add_clique t lo hi =
  for i = lo to hi do
    for j = i + 1 to hi do
      Edge_table.add_pair t i j
    done
  done

let clique ~n =
  let t = table ~n ~size_hint:(n * n) () in
  add_clique t 0 (n - 1);
  Graph.of_table t

let barbell ~n =
  if n < 2 then path ~n
  else begin
    let half = n / 2 in
    let t = table ~n ~size_hint:((n * n / 2) + 1) () in
    add_clique t 0 (half - 1);
    add_clique t half (n - 1);
    Edge_table.add_pair t (half - 1) half;
    Graph.of_table t
  end

let lollipop ~n =
  if n < 2 then path ~n
  else begin
    let head = (n + 1) / 2 in
    let t = table ~n ~size_hint:((n * n / 2) + 1) () in
    add_clique t 0 (head - 1);
    for i = head - 1 to n - 2 do
      Edge_table.add_pair t i (i + 1)
    done;
    Graph.of_table t
  end

let grid ~n =
  if n < 2 then path ~n
  else begin
    let cols = int_of_float (ceil (sqrt (float_of_int n))) in
    let t = table ~n ~size_hint:(2 * n) () in
    for v = 0 to n - 1 do
      let r = v / cols and c = v mod cols in
      if c + 1 < cols && v + 1 < n then Edge_table.add_pair t v (v + 1);
      if (r + 1) * cols + c < n then Edge_table.add_pair t v (v + cols)
    done;
    Graph.of_table t
  end

let hypercube ~n =
  if n < 2 then path ~n
  else begin
    let dim =
      let rec loop d = if 1 lsl (d + 1) <= n then loop (d + 1) else d in
      loop 0
    in
    let cube = 1 lsl dim in
    let t = table ~n ~size_hint:(n * (dim + 1)) () in
    for v = 0 to cube - 1 do
      for b = 0 to dim - 1 do
        let w = v lxor (1 lsl b) in
        if w > v then Edge_table.add_pair t v w
      done
    done;
    for v = cube to n - 1 do
      Edge_table.add_pair t v (v mod cube)
    done;
    Graph.of_table t
  end

(* The random-attachment draws: a uniform permutation, then node
   [order.(i)] attaches to a uniformly random earlier node.  The tree
   comes back as a parent array; the first node of the order is the
   root, its own parent, and every other node [v] gives the edge
   [(v, parent.(v))].  Needs [n >= 1]. *)
let random_parents rng ~n =
  let order = Rng.permutation rng n in
  let parent = Array.make n order.(0) in
  for i = 1 to n - 1 do
    parent.(order.(i)) <- order.(Rng.int rng i)
  done;
  parent

let random_tree rng ~n =
  if n <= 1 then Graph.empty ~n
  else begin
    let t = table ~n ~size_hint:n () in
    Array.iteri
      (fun v p -> if p <> v then Edge_table.add_pair t v p)
      (random_parents rng ~n);
    Graph.of_table t
  end

(* One pass in ascending key order.  The tree's draws come first, as
   in [random_tree]; each tree edge is then filed under its smaller
   endpoint (a linked list through [next], named by its child), and
   before row i is walked its tree edges stamp both their endpoints
   with i.  The walk draws for every pair, so the stream matches the
   tree-then-Bernoulli order, and keeps a pair whose draw succeeds or
   whose larger end carries the stamp: the keys come out ascending and
   final, with no sort or merge.  The buffer starts at the expected
   edge count plus slack and doubles if a round overshoots it.  Each
   row reserves room for all its pairs up front, so the loop writes
   every candidate key and advances the length by the kept bit: the
   only branches left are the draw's own.  The stamp test is
   [Int.equal], not Ops' [=], which is a call per pair wherever the
   library is compiled [-opaque] (dune's dev profile). *)
let random_connected rng ~n ~p =
  if n <= 1 then Graph.empty ~n
  else begin
    let parent = random_parents rng ~n in
    let head = Array.make n (-1) and next = Array.make n (-1) in
    for v = 0 to n - 1 do
      let u = parent.(v) in
      if u <> v then begin
        let lo = Int.min u v in
        next.(v) <- head.(lo);
        head.(lo) <- v
      end
    done;
    let mark = Array.make n (-1) in
    let expected =
      (if p > 0. then Float.min p 1. else 0.) *. float_of_int (n * (n - 1) / 2)
    in
    let drawn =
      ref (Array.make (n + int_of_float (expected +. (4. *. sqrt expected))) 0)
    in
    let len = ref 0 in
    let th = Rng.threshold p in
    for i = 0 to n - 1 do
      let row = n - 1 - i in
      if !len + row > Array.length !drawn then begin
        let bigger = Array.make (max (2 * !len) (!len + row)) 0 in
        Array.blit !drawn 0 bigger 0 !len;
        drawn := bigger
      end;
      let e = ref head.(i) in
      while !e >= 0 do
        mark.(!e) <- i;
        mark.(parent.(!e)) <- i;
        e := next.(!e)
      done;
      let buf = !drawn and base = i * n in
      for j = i + 1 to n - 1 do
        buf.(!len) <- base + j;
        len :=
          !len
          + (Bool.to_int (Rng.below rng th)
            lor Bool.to_int (Int.equal mark.(j) i))
      done
    done;
    let keys = !drawn in
    Graph.make ~n
      (if !len = Array.length keys then keys else Array.sub keys 0 !len)
  end

let random_regularish rng ~n ~d =
  if n <= 2 then path ~n
  else begin
    (* Renumber a random Hamiltonian cycle instead of the canonical one,
       then overlay matching batches built from random permutations. *)
    let t = table ~n ~size_hint:(n * (d + 1)) () in
    let perm = Rng.permutation rng n in
    for i = 0 to n - 1 do
      Edge_table.add_pair t perm.(i) perm.((i + 1) mod n)
    done;
    let batches = max 0 ((d - 2 + 1) / 2) in
    for _ = 1 to batches do
      let m = Rng.permutation rng n in
      let i = ref 0 in
      while !i + 1 < n do
        if m.(!i) <> m.(!i + 1) then Edge_table.add_pair t m.(!i) m.(!i + 1);
        i := !i + 2
      done
    done;
    Graph.of_table t
  end

let all_named =
  [
    ("path", fun (_ : Rng.t) ~n -> path ~n);
    ("cycle", fun (_ : Rng.t) ~n -> cycle ~n);
    ("star", fun (_ : Rng.t) ~n -> star ~n);
    ("clique", fun (_ : Rng.t) ~n -> clique ~n);
    ("barbell", fun (_ : Rng.t) ~n -> barbell ~n);
    ("lollipop", fun (_ : Rng.t) ~n -> lollipop ~n);
    ("grid", fun (_ : Rng.t) ~n -> grid ~n);
    ("hypercube", fun (_ : Rng.t) ~n -> hypercube ~n);
    ("random-tree", fun rng ~n -> random_tree rng ~n);
    ("random-connected", fun rng ~n -> random_connected rng ~n ~p:0.1);
    ("random-regularish", fun rng ~n -> random_regularish rng ~n ~d:4);
  ]

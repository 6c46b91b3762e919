open Ops

(* The active edges are the keys of the last returned graph; [born]
   runs parallel to them, holding the round each edge's current run
   started.  A step is a merge walk over those keys and the proposal's
   (both ascending), so the next graph comes straight out as sorted
   keys.  When a step changes nothing — the common case in the paper's
   3-edge-stable environments, where most proposals repeat the
   previous round — a first walk finds that without allocating, and
   the previously built graph is returned as-is, so its adjacency
   arrays (and lazily built edge set) are reused. *)
type t = {
  sigma : int;
  n : int;
  mutable born : int array;
  mutable round : int;
  mutable last : Graph.t;
}

let create ~sigma ~n =
  if sigma < 1 then invalid_arg "Stability.create: sigma must be >= 1";
  if n < 0 then invalid_arg "Stability.create: negative n";
  { sigma; n; born = [||]; round = 0; last = Graph.empty ~n }

let sigma t = t.sigma

(* Merge the active keys with the proposal's keys [q], calling [keep]
   on every edge of the next graph with the round its run started, and
   tell whether the edge set changed.  An active edge that is no longer
   proposed is dropped once its run is at least sigma rounds old. *)
let walk t q keep =
  let a = Graph.edges t.last in
  let la = Array.length a and lq = Array.length q in
  let i = ref 0 and j = ref 0 and changed = ref false in
  while !i < la || !j < lq do
    if !j >= lq || (!i < la && a.(!i) < q.(!j)) then begin
      if t.round - t.born.(!i) < t.sigma then keep a.(!i) t.born.(!i)
      else changed := true;
      incr i
    end
    else if !i >= la || q.(!j) < a.(!i) then begin
      keep q.(!j) t.round;
      changed := true;
      incr j
    end
    else begin
      keep a.(!i) t.born.(!i);
      incr i;
      incr j
    end
  done;
  !changed

let step t proposal =
  if Graph.n proposal <> t.n then
    invalid_arg "Stability.step: node count mismatch";
  t.round <- t.round + 1;
  let q = Graph.edges proposal in
  if walk t q (fun _ _ -> ()) then begin
    let cap = Graph.edge_count t.last + Array.length q in
    let keys = Array.make cap 0 and born = Array.make cap 0 in
    let m = ref 0 in
    ignore
      (walk t q (fun key b ->
           keys.(!m) <- key;
           born.(!m) <- b;
           incr m));
    t.last <- Graph.make ~n:t.n (Array.sub keys 0 !m);
    t.born <- Array.sub born 0 !m
  end;
  t.last

let transform ~sigma = function
  | [] -> []
  | g :: _ as gs ->
      let t = create ~sigma ~n:(Graph.n g) in
      List.map (step t) gs

open Ops

type t = { n : int; rounds : Graph.t array }

let of_graphs = function
  | [] -> invalid_arg "Dyn_seq.of_graphs: empty sequence"
  | g :: _ as gs ->
      let n = Graph.n g in
      List.iter
        (fun g' ->
          if Graph.n g' <> n then
            invalid_arg "Dyn_seq.of_graphs: node counts disagree")
        gs;
      { n; rounds = Array.of_list gs }

let length t = Array.length t.rounds
let n t = t.n

let get t r =
  if r = 0 then Graph.empty ~n:t.n
  else if r >= 1 && r <= length t then t.rounds.(r - 1)
  else invalid_arg "Dyn_seq.get: round out of range"

let sum_over_rounds t f =
  let total = ref 0 in
  for r = 1 to length t do
    total := !total + f (Graph.delta_counts ~prev:(get t (r - 1)) ~cur:(get t r))
  done;
  !total

let tc t = sum_over_rounds t fst
let total_removals t = sum_over_rounds t snd

let all_connected t =
  let ok = ref true in
  for r = 1 to length t do
    if not (Graph.is_connected (get t r)) then ok := false
  done;
  !ok

let is_sigma_stable t ~sigma =
  if sigma < 1 then invalid_arg "Dyn_seq.is_sigma_stable: sigma must be >= 1";
  (* One merge walk per round over consecutive key arrays: an inserted
     key opens a presence run, a removed key closes one, which must
     have lasted [sigma] rounds.  Runs still open at the end are
     accepted regardless of length. *)
  let run_start = Hashtbl.create 64 in
  let ok = ref true in
  for r = 1 to length t do
    let a = Graph.edges (get t (r - 1)) and b = Graph.edges (get t r) in
    let la = Array.length a and lb = Array.length b in
    let i = ref 0 and j = ref 0 in
    while !i < la || !j < lb do
      if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
        if r - Hashtbl.find run_start a.(!i) < sigma then ok := false;
        incr i
      end
      else if !i >= la || b.(!j) < a.(!i) then begin
        Hashtbl.replace run_start b.(!j) r;
        incr j
      end
      else begin
        incr i;
        incr j
      end
    done
  done;
  !ok

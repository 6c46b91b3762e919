open Dynet.Ops

(* Greedy minimization: each pass proposes structurally smaller
   candidates and keeps the first one the predicate still fails;
   passes run rounds -> cap -> nodes -> tokens -> edges -> faults and
   the whole cycle repeats until a fixpoint (or the evaluation budget
   runs out).  Every candidate preserves the generator's invariants —
   round graphs stay connected, [n >= 2], [1 <= s <= min n k] — so a
   shrunk counterexample is always a valid, replayable case. *)

type stats = { evaluated : int; accepted : int }

let clamp_s c =
  { c with Case.s = max 1 (min c.Case.s (min c.Case.n c.Case.k)) }

(* {2 Candidate transformations} *)

let take l len =
  let rec go acc i = function
    | [] -> List.rev acc
    | _ when i >= len -> List.rev acc
    | x :: tl -> go (x :: acc) (i + 1) tl
  in
  go [] 0 l

(* Remove node [v], remap ids above it down by one, and patch any
   round the removal disconnected back to connectivity. *)
let drop_node (c : Case.t) v =
  if c.Case.n <= 2 then None
  else
    let n' = c.Case.n - 1 in
    let remap u = if u > v then u - 1 else u in
    let rounds =
      List.map
        (fun g ->
          (* Remapping is monotone, so the surviving keys stay sorted. *)
          let n = c.Case.n in
          let kept =
            List.filter_map
              (fun key ->
                let a = key / n and b = key mod n in
                if a = v || b = v then None
                else Some ((remap a * n') + remap b))
              (Array.to_list (Dynet.Graph.edges g))
          in
          let g' = Dynet.Graph.make ~n:n' (Array.of_list kept) in
          if Dynet.Graph.is_connected g' then g'
          else
            Dynet.Graph.union g'
              (Dynet.Graph.make ~n:n' (Dynet.Graph.connect_components g')))
        c.Case.rounds
    in
    Some (clamp_s { c with Case.n = n'; rounds })

let drop_token (c : Case.t) =
  if c.Case.k <= 1 then None
  else Some (clamp_s { c with Case.k = c.Case.k - 1 })

(* Every single-edge removal that keeps its round connected. *)
let edge_candidates (c : Case.t) =
  List.concat
    (List.mapi
       (fun i g ->
         List.filter_map
           (fun e ->
             let g' = Case.without_edge g e in
             if Dynet.Graph.is_connected g' then
               Some
                 {
                   c with
                   Case.rounds =
                     List.mapi
                       (fun j gj -> if j = i then g' else gj)
                       c.Case.rounds;
                 }
             else None)
           (List.init (Dynet.Graph.edge_count g) Fun.id))
       c.Case.rounds)

let fault_candidates (c : Case.t) =
  match c.Case.faults with
  | None -> []
  | Some f ->
      let with_f f' = { c with Case.faults = Some f' } in
      { c with Case.faults = None }
      :: List.filter_map
           (fun x -> x)
           [
             (if f.Scenario.Spec.loss > 0. then
                Some (with_f { f with Scenario.Spec.loss = 0. })
              else None);
             (if f.Scenario.Spec.dup > 0. then
                Some (with_f { f with Scenario.Spec.dup = 0. })
              else None);
             (if f.Scenario.Spec.crash > 0. then
                Some (with_f { f with Scenario.Spec.crash = 0. })
              else None);
             (if f.Scenario.Spec.max_delay > 0 then
                Some (with_f { f with Scenario.Spec.max_delay = 0 })
              else None);
           ]

(* {2 The greedy loop} *)

let minimize ?(budget = 400) ~fails case =
  let evaluated = ref 0 in
  let accepted = ref 0 in
  let try_candidate cand =
    if !evaluated >= budget then None
    else begin
      incr evaluated;
      if fails cand then begin
        incr accepted;
        Some cand
      end
      else None
    end
  in
  let first_failing cands =
    let rec go = function
      | [] -> None
      | cand :: rest -> (
          match try_candidate cand with
          | Some c -> Some c
          | None -> go rest)
    in
    go cands
  in
  (* Rounds: the shortest failing prefix (smallest first, so one
     accepted candidate ends the pass at the pass's minimum). *)
  let shrink_rounds (c : Case.t) =
    let len = List.length c.Case.rounds in
    let rec go l =
      if l >= len then c
      else
        match try_candidate { c with Case.rounds = take c.Case.rounds l } with
        | Some c' -> c'
        | None -> go (l + 1)
    in
    go 1
  in
  (* Round cap: repeated halving. *)
  let rec shrink_cap (c : Case.t) =
    match c.Case.max_rounds with
    | None -> c
    | Some m when m <= 1 -> c
    | Some m -> (
        match try_candidate { c with Case.max_rounds = Some (m / 2) } with
        | Some c' -> shrink_cap c'
        | None -> c)
  in
  let rec shrink_nodes (c : Case.t) =
    let rec go v =
      if v < 0 then None
      else
        match drop_node c v with
        | None -> go (v - 1)
        | Some cand -> (
            match try_candidate cand with
            | Some c' -> Some c'
            | None -> go (v - 1))
    in
    match go (c.Case.n - 1) with Some c' -> shrink_nodes c' | None -> c
  in
  let rec shrink_tokens (c : Case.t) =
    match drop_token c with
    | None -> c
    | Some cand -> (
        match try_candidate cand with
        | Some c' -> shrink_tokens c'
        | None -> c)
  in
  let rec shrink_edges (c : Case.t) =
    match first_failing (edge_candidates c) with
    | Some c' -> shrink_edges c'
    | None -> c
  in
  let shrink_faults (c : Case.t) =
    match first_failing (fault_candidates c) with Some c' -> c' | None -> c
  in
  let pass c =
    shrink_faults
      (shrink_edges
         (shrink_tokens (shrink_nodes (shrink_cap (shrink_rounds c)))))
  in
  let rec fix c =
    let before = !accepted in
    let c' = pass c in
    if !accepted = before || !evaluated >= budget then c' else fix c'
  in
  let minimal = fix case in
  (minimal, { evaluated = !evaluated; accepted = !accepted })

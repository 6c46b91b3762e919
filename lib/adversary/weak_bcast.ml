open Dynet

let make ~seed ~n =
  if n < 2 then invalid_arg "Weak_bcast.make: n must be >= 2";
  let rng = Rng.make ~seed in
  (* Who broadcast in the round before the one being built. *)
  let previous_broadcasters = ref [||] in
  fun ~round:_ ~prev:_ ~states:_ ~intents ->
    let spoke = !previous_broadcasters in
    (* Commit to this round's graph using last round's observations
       only. *)
    let silent =
      List.filter
        (fun v -> v < Array.length spoke && not spoke.(v))
        (List.init n (fun v -> v))
    in
    let hub =
      match silent with
      | [] -> Rng.int rng n
      | candidates -> Rng.pick rng (Array.of_list candidates)
    in
    let edges = Edge_table.create ~n ~size_hint:n () in
    for v = 0 to n - 1 do
      if v <> hub then Edge_table.add_pair edges hub v
    done;
    (* Only now record the current round's broadcasters, for next
       time: this is the one-round information lag of weak
       adaptivity. *)
    previous_broadcasters := Array.map Option.is_some intents;
    Graph.of_table edges

open Dynet

let adversary ~seed ~n ~cut_prob =
  if n < 1 then invalid_arg "Request_cutter.adversary: n must be >= 1";
  if cut_prob < 0. || cut_prob > 1. then
    invalid_arg "Request_cutter.adversary: cut_prob must be in [0, 1]";
  let rng = Rng.make ~seed in
  fun ~round ~prev ~states:_ ~traffic ->
    if round = 1 then Graph_gen.random_tree rng ~n
    else begin
      let requested = Edge_table.create ~n () in
      List.iter
        (fun (src, dst, cls) ->
          match cls with
          | Engine.Msg_class.Request -> Edge_table.add_pair requested src dst
          | Engine.Msg_class.Token | Engine.Msg_class.Completeness
          | Engine.Msg_class.Walk | Engine.Msg_class.Center
          | Engine.Msg_class.Control ->
              ())
        traffic;
      (* One coin per distinct requested edge, in ascending key order. *)
      let cut =
        List.filter
          (fun _ -> Rng.bernoulli rng cut_prob)
          (Array.to_list (Edge_table.sorted_keys requested))
      in
      let g =
        Graph.make ~n (Edge_table.diff_keys (Graph.edges prev) (Array.of_list cut))
      in
      if Graph.is_connected g then g
      else begin
        (* Reconnect by chaining a random member of each component;
           every added edge is a fresh topological change the ledger
           charges to the adversary. *)
        let uf = Graph.components g in
        let comps = Union_find.components uf in
        let pick_member members =
          let arr = Array.of_list members in
          Rng.pick rng arr
        in
        match comps with
        | [] | [ _ ] -> g
        | first :: rest ->
            let patch = Edge_table.create ~n () in
            ignore
              (List.fold_left
                 (fun prev_rep comp ->
                   let rep = pick_member comp in
                   Edge_table.add_pair patch prev_rep rep;
                   rep)
                 (pick_member first) rest);
            Graph.union g (Graph.of_table patch)
      end
    end

open! Dynet.Ops

(* A standalone copy of the phased-flooding protocol (own state type,
   no code shared with Gossip.Flooding beyond the Payload messages), so
   a seeded bug lives entirely inside this module. *)

type state = {
  k : int;
  phase_len : int;
  catalog : Gossip.Token.t array;
  mask : Dynet.Bitset.t;
  known_count : int;
}

let learn st (tok : Gossip.Token.t) =
  if Dynet.Bitset.mem st.mask tok.uid then st
  else
    {
      st with
      mask = Dynet.Bitset.add tok.uid st.mask;
      known_count = st.known_count + 1;
    }

let init ~instance =
  let n = Gossip.Instance.n instance in
  let k = Gossip.Instance.k instance in
  let phase_len = max 1 n in
  let catalog = Array.make k (Gossip.Token.make ~src:0 ~idx:0 ~uid:0) in
  for v = 0 to n - 1 do
    List.iter
      (fun (tok : Gossip.Token.t) -> catalog.(tok.uid) <- tok)
      (Gossip.Instance.tokens_of instance v)
  done;
  Array.init n (fun v ->
      let st =
        { k; phase_len; catalog; mask = Dynet.Bitset.create k; known_count = 0 }
      in
      List.fold_left learn st (Gossip.Instance.tokens_of instance v))

let all_complete ~k states =
  Array.for_all (fun st -> st.known_count >= k) states

let flooding ~bug : (module Fuzz.Diff.FLOODING) =
  (module struct
    type nonrec state = state

    module P = struct
      type nonrec state = state
      type msg = Gossip.Payload.t

      let classify = Gossip.Payload.classify

      let intent st ~round =
        (* The seeded fault: the buggy phase clock starts at round 0
           instead of round 1, so every phase boundary is crossed one
           round early — the classic off-by-one in token selection. *)
        let phase =
          if bug then round / st.phase_len mod st.k
          else (round - 1) / st.phase_len mod st.k
        in
        if Dynet.Bitset.mem st.mask phase then
          (st, Some (Gossip.Payload.Token_msg st.catalog.(phase)))
        else (st, None)

      let receive st ~round:_ ~inbox =
        List.fold_left
          (fun st (_, msg) ->
            match msg with
            | Gossip.Payload.Token_msg tok -> learn st tok
            | Gossip.Payload.Completeness _ | Gossip.Payload.Request _
            | Gossip.Payload.Walk_msg _ | Gossip.Payload.Center_announce ->
                st)
          st inbox

      let progress st = st.known_count

      (* Deliberately generic: the mutant must exercise the engines'
         ordinary protocol path, not the plane kernel. *)
      let plane = None
    end

    let protocol =
      (module P : Engine.Runner_broadcast.PROTOCOL
        with type state = state
         and type msg = Gossip.Payload.t)

    let init = init
    let all_complete = all_complete
  end : Fuzz.Diff.FLOODING)

open Dynet.Ops

module NSet = Dynet.Node_id.Set
module NMap = Dynet.Node_id.Map
module ISet = Set.Make (Int)

module Make (P : Engine.Runner_unicast.PROTOCOL) = struct
  type msg = Data of { seq : int; payload : P.msg } | Ack of { seq : int }

  (* One unacked inner message.  [next_try <= round] means due:
     freshly enqueued entries are due immediately (their first
     transmission is attempt 0), so transmission and retransmission
     share one code path. *)
  type entry = {
    dst : Dynet.Node_id.t;
    payload : P.msg;
    is_token : bool;
    next_try : int;
    rto : int;
    attempts : int;
  }

  (* The retransmit timer: [rto0] rounds at first (one for delivery,
     one for the ack), doubled per transmission up to [max_rto]. *)
  let rto0 = 2
  let backoff = 2
  let max_rto = 64

  type state = {
    inner : P.state;
    next_seq : int;
    outstanding : (int * entry) list;  (* FIFO by seq *)
    acks : (Dynet.Node_id.t * int) list;  (* queued, oldest first *)
    seen : ISet.t NMap.t;  (* delivered (sender, seq) pairs *)
    resent_round : int;  (* the round [resent] was sent in *)
    resent : Dynet.Node_id.t list;  (* that round's retransmissions, in order *)
    acks_sent : int;
  }

  let inner st = st.inner
  let resent st = (st.resent_round, st.resent)
  let acks_sent st = st.acks_sent

  module Protocol = struct
    type nonrec state = state
    type nonrec msg = msg

    let classify = function
      | Data { payload; _ } -> P.classify payload
      | Ack _ -> Engine.Msg_class.Control

    let send st ~round ~neighbors =
      let inner, out = P.send st.inner ~round ~neighbors in
      let next_seq, fresh =
        List.fold_left
          (fun (seq, acc) (dst, payload) ->
            let is_token =
              match P.classify payload with
              | Engine.Msg_class.Token | Engine.Msg_class.Walk -> true
              | Engine.Msg_class.Completeness | Engine.Msg_class.Request
              | Engine.Msg_class.Center | Engine.Msg_class.Control ->
                  false
            in
            ( seq + 1,
              ( seq,
                {
                  dst;
                  payload;
                  is_token;
                  next_try = round;
                  rto = rto0;
                  attempts = 0;
                } )
              :: acc ))
          (st.next_seq, []) out
      in
      let outstanding = st.outstanding @ List.rev fresh in
      let present =
        Array.fold_left (fun acc w -> NSet.add w acc) NSet.empty neighbors
      in
      (* Acks first: Control class, no bandwidth budget. *)
      let ready_acks, waiting_acks =
        List.partition (fun (dst, _) -> NSet.mem dst present) st.acks
      in
      let ack_msgs = List.map (fun (dst, seq) -> (dst, Ack { seq })) ready_acks in
      (* Data: every due entry whose destination is adjacent, oldest
         first, at most one token-class per destination per round. *)
      let token_used = ref NSet.empty in
      let resent = ref [] in
      let data_msgs = ref [] in
      let outstanding =
        List.map
          (fun (seq, e) ->
            if
              e.next_try <= round
              && NSet.mem e.dst present
              && not (e.is_token && NSet.mem e.dst !token_used)
            then begin
              if e.is_token then token_used := NSet.add e.dst !token_used;
              if e.attempts > 0 then resent := e.dst :: !resent;
              data_msgs := (e.dst, Data { seq; payload = e.payload }) :: !data_msgs;
              ( seq,
                {
                  e with
                  attempts = e.attempts + 1;
                  next_try = round + e.rto;
                  rto = min max_rto (e.rto * backoff);
                } )
            end
            else (seq, e))
          outstanding
      in
      ( {
          st with
          inner;
          next_seq;
          outstanding;
          acks = waiting_acks;
          resent_round = round;
          resent = List.rev !resent;
          acks_sent = st.acks_sent + List.length ack_msgs;
        },
        ack_msgs @ List.rev !data_msgs )

    let receive st ~round ~neighbors ~inbox =
      let st, delivered_rev =
        List.fold_left
          (fun (st, acc) (u, m) ->
            match m with
            | Ack { seq } ->
                ( {
                    st with
                    outstanding =
                      List.filter
                        (fun (s, e) -> not (s = seq && e.dst = u))
                        st.outstanding;
                  },
                  acc )
            | Data { seq; payload } ->
                (* Ack every copy's arrival (a duplicate means the
                   sender may have missed the first ack), but deliver
                   the payload to the inner protocol only once. *)
                let st =
                  if List.mem (u, seq) st.acks then st
                  else { st with acks = st.acks @ [ (u, seq) ] }
                in
                let seen_u =
                  Option.value (NMap.find_opt u st.seen) ~default:ISet.empty
                in
                if ISet.mem seq seen_u then (st, acc)
                else
                  ( { st with seen = NMap.add u (ISet.add seq seen_u) st.seen },
                    (u, payload) :: acc ))
          (st, []) inbox
      in
      let inner =
        P.receive st.inner ~round ~neighbors ~inbox:(List.rev delivered_rev)
      in
      { st with inner }

    let progress st = P.progress st.inner
  end

  let protocol =
    (module Protocol : Engine.Runner_unicast.PROTOCOL
      with type state = state
       and type msg = msg)

  let wrap states =
    Array.map
      (fun inner ->
        {
          inner;
          next_seq = 0;
          outstanding = [];
          acks = [];
          seen = NMap.empty;
          resent_round = 0;
          resent = [];
          acks_sent = 0;
        })
      states
end

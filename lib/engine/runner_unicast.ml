open Dynet.Ops

module type PROTOCOL = sig
  type state
  type msg

  val classify : msg -> Msg_class.t

  val send :
    state ->
    round:int ->
    neighbors:Dynet.Node_id.t array ->
    state * (Dynet.Node_id.t * msg) list

  val receive :
    state ->
    round:int ->
    neighbors:Dynet.Node_id.t array ->
    inbox:(Dynet.Node_id.t * msg) list ->
    state

  val progress : state -> int
end

type traffic = (Dynet.Node_id.t * Dynet.Node_id.t * Msg_class.t) list

type 'state adversary =
  round:int ->
  prev:Dynet.Graph.t ->
  states:'state array ->
  traffic:traffic ->
  Dynet.Graph.t

(* [search] threads [arr]/[x] explicitly so it stays a constant
   closure: capturing them would allocate one closure per call, and
   this probe runs once per delivered message. *)
let mem_sorted arr x =
  let rec search arr x lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c = compare x arr.(mid) in
      if c = 0 then true
      else if c < 0 then search arr x lo mid
      else search arr x (mid + 1) hi
  in
  search arr x 0 (Array.length arr)
[@@dynlint.hot]

(* The one production unicast round loop: [run] is this loop over a
   single span, and [Soa] runs it over its shard spans.

   [P.send] and [P.receive] fan out over a [Shard_pool]; everything
   whose order is observable happens sequentially between the two
   barriers, in node order — state commits, the neighbor and
   token-bandwidth checks, ledger, trace, the traffic fed to the next
   round's adversary, the fault layer's delivery draws, and the inbox
   conses themselves.  Reports, fault draws and violation behaviour
   (including which states a violation leaves committed) are
   therefore identical at any shard count. *)
let run_sharded (type s m)
    (module P : PROTOCOL with type state = s and type msg = m) ~spans
    ?(ctx = Ctx.default) ?init_prev ?target_progress ~(states : s array)
    ~(adversary : s adversary) ~max_rounds ~stop () =
  let n = Array.length states in
  let shards = Array.length spans in
  let ledger = Ledger.create () in
  let obs = ctx.Ctx.obs in
  (* Hoisted so the default Null sink costs one boolean test per
     emission site and never allocates an event. *)
  let tracing = not (Obs.Sink.is_null obs) in
  (* The fault and invariant layers, hoisted the same way: with
     [Faults.Plan.none] every fault step below is behind one boolean,
     and with --check off the copy counters are never fed. *)
  let dl = Delivery.start ctx ~classify:P.classify states in
  let faulty = Delivery.faulty dl and checking = Delivery.checking dl in
  let sum_progress () =
    Array.fold_left (fun acc st -> acc + P.progress st) 0 states
  in
  let prev = ref (Option.value init_prev ~default:(Dynet.Graph.empty ~n)) in
  (* Token bandwidth in O(n): the replay visits one sender at a time,
     and [sender_mark] is bumped per visited (round, sender), so
     [token_mark.(dst) = !sender_mark] exactly when the sender being
     replayed already sent [dst] a token this round. *)
  let token_mark = Array.make (max n 1) 0 in
  let sender_mark = ref 0 in
  let traffic = ref ([] : traffic) in
  let run =
    Ctx.start ctx ~n ~ledger ~max_rounds ~target:target_progress
      ~progress:sum_progress
      ~stop:(fun () -> stop states)
  in
  (* Send-phase scratch: workers park each live node's new state and
     raw send list, which the replay commits and delivers in node
     order. *)
  let new_states = Array.copy states in
  let outs : (Dynet.Node_id.t * m) list array = Array.make (max n 1) [] in
  let inboxes : (Dynet.Node_id.t * m) list array = Array.make (max n 1) [] in
  let shard_consumed = Array.make shards 0 in
  let cur_graph = ref (Dynet.Graph.empty ~n) in
  let cur_round = ref 0 in
  let send_job ~shard:_ ~lo ~hi =
    let g = !cur_graph and r = !cur_round in
    for v = lo to hi - 1 do
      if Delivery.alive dl v then begin
        let st, out =
          P.send states.(v) ~round:r ~neighbors:(Dynet.Graph.neighbors g v)
        in
        new_states.(v) <- st;
        outs.(v) <- out
      end
    done
  in
  let receive_job ~shard ~lo ~hi =
    let g = !cur_graph and r = !cur_round in
    for v = lo to hi - 1 do
      if Delivery.alive dl v then begin
        let inbox =
          List.stable_sort
            (fun (a, _) (b, _) -> Dynet.Node_id.compare a b)
            (List.rev inboxes.(v))
        in
        inboxes.(v) <- [];
        if checking then
          shard_consumed.(shard) <- shard_consumed.(shard) + List.length inbox;
        states.(v) <-
          P.receive states.(v) ~round:r ~neighbors:(Dynet.Graph.neighbors g v)
            ~inbox
      end
    done
  in
  Shard_pool.with_pool ~spans @@ fun pool ->
  while Ctx.next run do
    let r = Ctx.round run in
    Delivery.begin_round dl run;
    if not (Ctx.aborted run) then begin
      Ctx.phase run "adversary";
      let g = adversary ~round:r ~prev:!prev ~states ~traffic:!traffic in
      Ctx.phase run "graph";
      ignore (Ctx.commit_graph run ~prev:!prev g : bool);
      Ctx.phase run "send";
      cur_graph := g;
      cur_round := r;
      Shard_pool.run pool send_job;
      (* The replay.  Only live nodes sent, so only their states are
         committed: a dead node keeps its state, and a node restarted
         this round has already sent from its initial one. *)
      let round_traffic = ref [] in
      for v = 0 to n - 1 do
        if Delivery.alive dl v then begin
          states.(v) <- new_states.(v);
          incr sender_mark;
          let neighbors = Dynet.Graph.neighbors g v in
          List.iter
            (fun (dst, m) ->
              if not (mem_sorted neighbors dst) then
                raise
                  (Engine_error.Protocol_violation
                     (Printf.sprintf "round %d: node %d sent to non-neighbor %d"
                        r v dst));
              let cls = P.classify m in
              (match cls with
              | Msg_class.Token | Msg_class.Walk ->
                  if token_mark.(dst) = !sender_mark then
                    raise
                      (Engine_error.Protocol_violation
                         (Printf.sprintf
                            "round %d: node %d sent two tokens to %d in one round"
                            r v dst));
                  token_mark.(dst) <- !sender_mark
              | Msg_class.Completeness | Msg_class.Request | Msg_class.Center
              | Msg_class.Control ->
                  ());
              Ledger.record ledger cls 1;
              Ledger.record_sender ledger v 1;
              if checking then Delivery.sent dl 1;
              if tracing then
                Obs.Sink.emit obs
                  (Obs.Trace.Send
                     {
                       round = r;
                       src = v;
                       dst = Some dst;
                       cls = Msg_class.to_string cls;
                     });
              round_traffic := (v, dst, cls) :: !round_traffic;
              (* Collect in reverse, fix sender order at receive. *)
              if not faulty then begin
                if checking then Delivery.created dl 1;
                inboxes.(dst) <- (v, m) :: inboxes.(dst)
              end
              else Delivery.deliver dl ~inboxes ~round:r ~src:v ~dst m)
            outs.(v);
          outs.(v) <- []
        end
      done;
      if faulty then begin
        Ctx.phase run "deliver";
        (* Copies whose bounded delay expires this round arrive after
           the on-time traffic (the receive sort interleaves them into
           sender order); a node crashed at delivery time loses its
           whole inbox. *)
        Delivery.settle dl ~inboxes ~round:r
      end;
      Ctx.phase run "receive";
      Shard_pool.run pool receive_job;
      if checking then
        for s = 0 to shards - 1 do
          Delivery.consumed dl shard_consumed.(s);
          shard_consumed.(s) <- 0
        done;
      Delivery.check_round dl run ~ledger g;
      prev := g;
      traffic := List.rev !round_traffic;
      Ctx.round_done run
    end
  done;
  (Ctx.finish run ~fault_counts:(Delivery.fault_counts dl), states)

let run p ?ctx ?init_prev ?target_progress ~states ~adversary ~max_rounds ~stop
    () =
  run_sharded p
    ~spans:[| (0, Array.length states) |]
    ?ctx ?init_prev ?target_progress ~states ~adversary ~max_rounds ~stop ()

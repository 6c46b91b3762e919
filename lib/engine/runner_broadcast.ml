(* Optional struct-of-arrays capability (see the mli for the laws a
   provider must satisfy): a protocol whose per-node state is exactly
   "a bitset of known tokens" under a phased single-token broadcast
   discipline describes itself here, and the SoA engine specializes
   its whole round loop onto flat word planes.  Protocols leave it
   [None] to run on the generic paths of every engine. *)
type ('s, 'm) plane_spec = {
  width : 's -> int;
  phase_of : 's -> round:int -> int;
  message : 's -> int -> 'm;
  mask : 's -> Dynet.Bitset.t;
  restate : 's -> mask:Dynet.Bitset.t -> known:int -> 's;
}

module type PROTOCOL = sig
  type state
  type msg

  val classify : msg -> Msg_class.t
  val intent : state -> round:int -> state * msg option

  val receive :
    state -> round:int -> inbox:(Dynet.Node_id.t * msg) list -> state

  val progress : state -> int
  val plane : (state, msg) plane_spec option
end

type ('state, 'msg) adversary =
  round:int ->
  prev:Dynet.Graph.t ->
  states:'state array ->
  intents:'msg option array ->
  Dynet.Graph.t

let run (type s m) (module P : PROTOCOL with type state = s and type msg = m)
    ?(ctx = Ctx.default) ?init_prev ?target_progress ~(states : s array)
    ~(adversary : (s, m) adversary)
    ~max_rounds ~stop () =
  let n = Array.length states in
  let ledger = Ledger.create () in
  let obs = ctx.Ctx.obs in
  (* Hoisted so the default Null sink costs one boolean test per
     emission site and never allocates an event. *)
  let tracing = not (Obs.Sink.is_null obs) in
  (* The fault and invariant layers, hoisted the same way: with
     [Faults.Plan.none] and --check off the round loop below touches
     neither.  A local broadcast is charged once in the ledger but
     delivered per edge, so the sent count is broadcasts while the
     copy counters track per-edge deliveries. *)
  let dl = Delivery.start ctx ~classify:P.classify states in
  let faulty = Delivery.faulty dl and checking = Delivery.checking dl in
  let sum_progress () =
    Array.fold_left (fun acc st -> acc + P.progress st) 0 states
  in
  let prev = ref (Option.value init_prev ~default:(Dynet.Graph.empty ~n)) in
  let run =
    Ctx.start ctx ~n ~ledger ~max_rounds ~target:target_progress
      ~progress:sum_progress
      ~stop:(fun () -> stop states)
  in
  while Ctx.next run do
    let r = Ctx.round run in
    Delivery.begin_round dl run;
    if not (Ctx.aborted run) then begin
      Ctx.phase run "intent";
      let intents : m option array = Array.make n None in
      for v = 0 to n - 1 do
        (* A crashed node broadcasts nothing this round. *)
        if Delivery.alive dl v then begin
          let st, m = P.intent states.(v) ~round:r in
          states.(v) <- st;
          intents.(v) <- m
        end
      done;
      Ctx.phase run "adversary";
      let g = adversary ~round:r ~prev:!prev ~states ~intents in
      Ctx.phase run "graph";
      ignore (Ctx.commit_graph run ~prev:!prev g : bool);
      Ctx.phase run "send";
      Array.iteri
        (fun v intent ->
          match intent with
          | None -> ()
          | Some m ->
              let cls = P.classify m in
              Ledger.record ledger cls 1;
              Ledger.record_sender ledger v 1;
              if checking then Delivery.sent dl 1;
              if tracing then
                Obs.Sink.emit obs
                  (Obs.Trace.Send
                     {
                       round = r;
                       src = v;
                       dst = None;
                       cls = Msg_class.to_string cls;
                     }))
        intents;
      Ctx.phase run "deliver";
      let inboxes =
        if not faulty then
          Array.init n (fun v ->
              (* Walk the sorted neighbor row backwards, prepending, so
                 the inbox comes out in ascending sender order without
                 the Array.to_list / filter_map intermediates. *)
              let row = Dynet.Graph.neighbors g v in
              let acc = ref [] in
              for i = Array.length row - 1 downto 0 do
                let u = row.(i) in
                match intents.(u) with
                | None -> ()
                | Some m ->
                    if checking then Delivery.created dl 1;
                    acc := (u, m) :: !acc
              done;
              !acc)
        else begin
          (* The per-edge deliveries fail (or duplicate, or lag)
             independently, drawn per receiver, then per ascending
             neighbor. *)
          let inboxes = Array.make n [] in
          for v = 0 to n - 1 do
            Array.iter
              (fun u ->
                match intents.(u) with
                | None -> ()
                | Some m -> Delivery.deliver dl ~inboxes ~round:r ~src:u ~dst:v m)
              (Dynet.Graph.neighbors g v)
          done;
          Delivery.settle dl ~inboxes ~round:r;
          for v = 0 to n - 1 do
            inboxes.(v) <- List.rev inboxes.(v)
          done;
          inboxes
        end
      in
      Ctx.phase run "receive";
      for v = 0 to n - 1 do
        if Delivery.alive dl v then begin
          if checking then Delivery.consumed dl (List.length inboxes.(v));
          states.(v) <- P.receive states.(v) ~round:r ~inbox:inboxes.(v)
        end
      done;
      Delivery.check_round dl run ~ledger g;
      prev := g;
      Ctx.round_done run
    end
  done;
  (Ctx.finish run ~fault_counts:(Delivery.fault_counts dl), states)

open Dynet.Ops

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
  let { Ctx.obs; faults; _ } = ctx in
  (* Hoisted so the default Null sink costs one boolean test per
     emission site and never allocates an event. *)
  let tracing = not (Obs.Sink.is_null obs) in
  (* Hoisted fault-layer activity test: with [Faults.Plan.none] the
     round loop below is the pre-fault-layer code path. *)
  let frun = Faults.Plan.start faults ~n in
  let faulty = Faults.Plan.active frun in
  let fcounts = Faults.Plan.counts frun in
  (* Invariant layer, hoisted like [tracing]/[faulty].  A local
     broadcast is charged once in the ledger but delivered per edge, so
     [c_sent] counts broadcasts while the conservation counters track
     per-edge message copies (see Runner_unicast for the scheme). *)
  let checking = Check.enabled () in
  let c_sent = ref 0 and c_created = ref 0 and c_consumed = ref 0 in
  let c_dropped = ref 0 and c_inflight = ref 0 in
  let initial = if faulty then Array.copy states else [||] in
  (* Delayed per-edge deliveries: due round -> (dst, src, msg). *)
  let delayed : (int, (Dynet.Node_id.t * Dynet.Node_id.t * m) list ref)
      Hashtbl.t =
    Hashtbl.create 16
  in
  let emit_fault ~round ~kind ~node ?dst ?cls () =
    if tracing then
      Obs.Sink.emit obs (Obs.Trace.Fault { round; kind; node; dst; cls })
  in
  let sum_progress () =
    Array.fold_left (fun acc st -> acc + P.progress st) 0 states
  in
  let prev = ref (Option.value init_prev ~default:(Dynet.Graph.empty ~n)) in
  let run =
    Ctx.start ctx ~ledger ~max_rounds ~target:target_progress
      ~progress:sum_progress
      ~stop:(fun () -> stop states)
  in
  while Ctx.next run do
    let r = Ctx.round run in
    if faulty then begin
      Ctx.phase run "faults";
      Faults.Plan.begin_round frun ~round:r
        ~on_crash:(fun v -> emit_fault ~round:r ~kind:"crash" ~node:v ())
        ~on_restart:(fun v ->
          states.(v) <- initial.(v);
          emit_fault ~round:r ~kind:"restart" ~node:v ());
      if Faults.Plan.doomed frun then
        Ctx.abort run "all nodes crashed with no possible restart"
    end;
    if not (Ctx.aborted run) then begin
      Ctx.phase run "intent";
      let intents =
        Array.map
          (fun _ -> (None : m option))
          states
      in
      for v = 0 to n - 1 do
        (* A crashed node broadcasts nothing this round. *)
        if (not faulty) || Faults.Plan.alive frun v then begin
          let st, m = P.intent states.(v) ~round:r in
          states.(v) <- st;
          intents.(v) <- m
        end
      done;
      Ctx.phase run "adversary";
      let g = adversary ~round:r ~prev:!prev ~states ~intents in
      Ctx.phase run "graph";
      Engine_error.check_graph ~round:r ~n g;
      Ctx.commit_graph run ~prev:!prev g;
      Ctx.phase run "send";
      Array.iteri
        (fun v intent ->
          match intent with
          | None -> ()
          | Some m ->
              let cls = P.classify m in
              Ledger.record ledger cls 1;
              Ledger.record_sender ledger v 1;
              if checking then incr c_sent;
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
                    if checking then incr c_created;
                    acc := (u, m) :: !acc
              done;
              !acc)
        else begin
          (* A local broadcast is charged once but delivered per edge;
             the per-edge deliveries fail (or duplicate, or lag)
             independently. *)
          let inboxes = Array.make n [] in
          for v = 0 to n - 1 do
            Array.iter
              (fun u ->
                match intents.(u) with
                | None -> ()
                | Some m -> (
                    let cls_name = Msg_class.to_string (P.classify m) in
                    match Faults.Plan.deliveries frun with
                    | None ->
                        if checking then begin
                          incr c_created;
                          incr c_dropped
                        end;
                        emit_fault ~round:r ~kind:"drop" ~node:u ~dst:v
                          ~cls:cls_name ()
                    | Some delays ->
                        if checking then
                          c_created := !c_created + List.length delays;
                        if List.length delays > 1 then
                          emit_fault ~round:r ~kind:"dup" ~node:u ~dst:v
                            ~cls:cls_name ();
                        List.iter
                          (fun d ->
                            if d = 0 then inboxes.(v) <- (u, m) :: inboxes.(v)
                            else begin
                              if checking then incr c_inflight;
                              emit_fault ~round:r ~kind:"delay" ~node:u ~dst:v
                                ~cls:cls_name ();
                              let due = r + d in
                              let cell =
                                match Hashtbl.find_opt delayed due with
                                | Some cell -> cell
                                | None ->
                                    let cell = ref [] in
                                    Hashtbl.add delayed due cell;
                                    cell
                              in
                              cell := (v, u, m) :: !cell
                            end)
                          delays))
              (Dynet.Graph.neighbors g v)
          done;
          (match Hashtbl.find_opt delayed r with
          | None -> ()
          | Some cell ->
              if checking then
                c_inflight := !c_inflight - List.length !cell;
              List.iter
                (fun (dst, src, m) ->
                  inboxes.(dst) <- (src, m) :: inboxes.(dst))
                (List.rev !cell);
              Hashtbl.remove delayed r);
          for v = 0 to n - 1 do
            if not (Faults.Plan.alive frun v) then begin
              if checking then
                c_dropped := !c_dropped + List.length inboxes.(v);
              List.iter
                (fun (src, m) ->
                  fcounts.Faults.Counts.drops <-
                    fcounts.Faults.Counts.drops + 1;
                  emit_fault ~round:r ~kind:"drop" ~node:src ~dst:v
                    ~cls:(Msg_class.to_string (P.classify m)) ())
                (List.rev inboxes.(v));
              inboxes.(v) <- []
            end
            else inboxes.(v) <- List.rev inboxes.(v)
          done;
          inboxes
        end
      in
      Ctx.phase run "receive";
      for v = 0 to n - 1 do
        if (not faulty) || Faults.Plan.alive frun v then begin
          if checking then
            c_consumed := !c_consumed + List.length inboxes.(v);
          states.(v) <- P.receive states.(v) ~round:r ~inbox:inboxes.(v)
        end
      done;
      if checking then begin
        Ctx.phase run "check";
        Check.connected
          ~what:(Printf.sprintf "round %d: adversary graph connectivity" r)
          g;
        Check.require ~what:"ledger total equals broadcasts performed"
          (fun () -> Ledger.total ledger = !c_sent);
        Check.require ~what:"message-copy conservation" (fun () ->
            Check.conserved ~created:!c_created ~consumed:!c_consumed
              ~dropped:!c_dropped ~in_flight:!c_inflight)
      end;
      prev := g;
      Ctx.round_done run
    end
  done;
  ( Ctx.finish run ~fault_counts:(if faulty then Some fcounts else None),
    states )

open Dynet.Ops

(* The pseudocode-faithful engine: every round is executed the way the
   paper writes it — recompute, scan, allocate — with none of the
   fast path's bitsets, cached counts, or binary searches.  What it
   MUST share with [Default] is observable behaviour: the same fault
   stream is drawn in the same order, the same ledger entries are
   recorded, the same trace events are emitted, [on_graph] sees the
   same committed graphs, and the returned [Run_result.t] is
   bit-identical.  The differential fuzzer ([lib/fuzz]) holds the two
   engines to exactly that contract. *)

let name = "reference"

(* Naive delayed-delivery queue: an association list from due round to
   the messages (dst, src, msg) pushed for it, newest first — the
   pseudocode's "in-flight" bag, no hashing. *)
module Delay_queue = struct
  type 'm t = (int * (Dynet.Node_id.t * Dynet.Node_id.t * 'm) list) list ref

  let create () : 'm t = ref []

  let push (t : 'm t) ~due entry =
    let rec go = function
      | [] -> [ (due, [ entry ]) ]
      | (r, cell) :: rest ->
          if r = due then (r, entry :: cell) :: rest else (r, cell) :: go rest
    in
    t := go !t

  (* Everything due this round, oldest push first (the fast engine's
     [List.rev !cell] order), removed from the bag. *)
  let take (t : 'm t) ~round =
    let due, rest = List.partition (fun (r, _) -> r = round) !t in
    t := rest;
    match due with [] -> [] | (_, cell) :: _ -> List.rev cell
end

let sum_progress progress states =
  List.fold_left (fun acc st -> acc + progress st) 0 (Array.to_list states)

module Broadcast = struct
  let run (type s m) (module P : Runner_broadcast.PROTOCOL
             with type state = s
              and type msg = m) ?(ctx = Ctx.default) ?init_prev
      ?target_progress ~(states : s array)
      ~(adversary : (s, m) Runner_broadcast.adversary) ~max_rounds ~stop () =
    let n = Array.length states in
    let { Ctx.obs; faults; prof; on_graph; stall_after; cancel } = ctx in
    let ledger = Ledger.create () in
    let timeline = ref [] in
    let tracing = not (Obs.Sink.is_null obs) in
    let profiling = not (Obs.Span.is_null prof) in
    let frun = Faults.Plan.start faults ~n in
    let faulty = Faults.Plan.active frun in
    let fcounts = Faults.Plan.counts frun in
    let checking = Check.enabled () in
    let c_sent = ref 0 and c_created = ref 0 and c_consumed = ref 0 in
    let c_dropped = ref 0 and c_inflight = ref 0 in
    let initial = if faulty then Array.copy states else [||] in
    let delayed : m Delay_queue.t = Delay_queue.create () in
    let emit_fault ~round ~kind ~node ?dst ?cls () =
      if tracing then
        Obs.Sink.emit obs (Obs.Trace.Fault { round; kind; node; dst; cls })
    in
    let p0 = sum_progress P.progress states in
    Ledger.note_progress ledger p0;
    if tracing then
      Obs.Sink.emit obs
        (Obs.Trace.Progress { round = 0; progress = p0; learnings = 0 });
    let prev = ref (Option.value init_prev ~default:(Dynet.Graph.empty ~n)) in
    let best_progress = ref p0 in
    let stagnant = ref 0 in
    let stalled = ref false in
    let completed = ref (stop states) in
    let aborted = ref None in
    (* Cooperative cancellation, polled once per round boundary; see
       Runner_broadcast for the latching scheme. *)
    let cancelled = ref false in
    let cancel_requested () =
      (match cancel with
      | None -> ()
      | Some c -> if not !cancelled then cancelled := c ());
      !cancelled
    in
    let round = ref 0 in
    while
      (not !completed) && (not !stalled) && Option.is_none !aborted
      && (not (cancel_requested ()))
      && !round < max_rounds
    do
      incr round;
      let r = !round in
      if tracing then Obs.Sink.emit obs (Obs.Trace.Round_start { round = r });
      if profiling then begin
        Obs.Span.enter prof ~cat:"round" "round";
        Obs.Span.add_counter prof "round" (float_of_int r)
      end;
      if faulty then begin
        if profiling then Obs.Span.enter prof ~cat:"phase" "faults";
        Faults.Plan.begin_round frun ~round:r
          ~on_crash:(fun v -> emit_fault ~round:r ~kind:"crash" ~node:v ())
          ~on_restart:(fun v ->
            states.(v) <- initial.(v);
            emit_fault ~round:r ~kind:"restart" ~node:v ());
        if Faults.Plan.doomed frun then
          aborted := Some "all nodes crashed with no possible restart";
        if profiling then Obs.Span.leave prof
      end;
      if Option.is_none !aborted then begin
        if profiling then Obs.Span.enter prof ~cat:"phase" "intent";
        (* "Each node picks at most one message to broadcast, before
           seeing the round's topology." *)
        let intents = Array.make n (None : m option) in
        for v = 0 to n - 1 do
          if (not faulty) || Faults.Plan.alive frun v then begin
            let st, m = P.intent states.(v) ~round:r in
            states.(v) <- st;
            intents.(v) <- m
          end
        done;
        if profiling then begin
          Obs.Span.leave prof;
          Obs.Span.enter prof ~cat:"phase" "adversary"
        end;
        let g = adversary ~round:r ~prev:!prev ~states ~intents in
        if profiling then begin
          Obs.Span.leave prof;
          Obs.Span.enter prof ~cat:"phase" "graph"
        end;
        Engine_error.check_graph ~round:r ~n g;
        (match on_graph with None -> () | Some f -> f ~round:r g);
        let tc0 = Ledger.tc ledger and rm0 = Ledger.removals ledger in
        Ledger.note_graph_change ledger ~prev:!prev ~cur:g;
        if tracing then
          Obs.Sink.emit obs
            (Obs.Trace.Graph_change
               {
                 round = r;
                 added = Ledger.tc ledger - tc0;
                 removed = Ledger.removals ledger - rm0;
               });
        Ledger.note_round ledger;
        if profiling then begin
          Obs.Span.leave prof;
          Obs.Span.enter prof ~cat:"phase" "send"
        end;
        (* A broadcast is charged once, whatever the degree. *)
        for v = 0 to n - 1 do
          match intents.(v) with
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
                     })
        done;
        if profiling then begin
          Obs.Span.leave prof;
          Obs.Span.enter prof ~cat:"phase" "deliver"
        end;
        let inboxes =
          if not faulty then
            (* "Every broadcast reaches all the sender's neighbors":
               for each node, collect the broadcasting neighbors in
               increasing id order — a fresh list pass per node, no
               reverse-accumulation tricks. *)
            Array.init n (fun v ->
                Dynet.Graph.neighbors g v |> Array.to_list
                |> List.filter_map (fun u ->
                       match intents.(u) with
                       | None -> None
                       | Some m ->
                           if checking then incr c_created;
                           Some (u, m)))
          else begin
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
                              if d = 0 then
                                inboxes.(v) <- (u, m) :: inboxes.(v)
                              else begin
                                if checking then incr c_inflight;
                                emit_fault ~round:r ~kind:"delay" ~node:u
                                  ~dst:v ~cls:cls_name ();
                                Delay_queue.push delayed ~due:(r + d) (v, u, m)
                              end)
                            delays))
                (Dynet.Graph.neighbors g v)
            done;
            let due = Delay_queue.take delayed ~round:r in
            if checking then c_inflight := !c_inflight - List.length due;
            List.iter
              (fun (dst, src, m) -> inboxes.(dst) <- (src, m) :: inboxes.(dst))
              due;
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
        if profiling then begin
          Obs.Span.leave prof;
          Obs.Span.enter prof ~cat:"phase" "receive"
        end;
        for v = 0 to n - 1 do
          if (not faulty) || Faults.Plan.alive frun v then begin
            if checking then
              c_consumed := !c_consumed + List.length inboxes.(v);
            states.(v) <- P.receive states.(v) ~round:r ~inbox:inboxes.(v)
          end
        done;
        if profiling then Obs.Span.leave prof;
        if checking then begin
          if profiling then Obs.Span.enter prof ~cat:"phase" "check";
          Check.connected
            ~what:(Printf.sprintf "round %d: adversary graph connectivity" r)
            g;
          Check.require ~what:"ledger total equals broadcasts performed"
            (fun () -> Ledger.total ledger = !c_sent);
          Check.require ~what:"message-copy conservation" (fun () ->
              Check.conserved ~created:!c_created ~consumed:!c_consumed
                ~dropped:!c_dropped ~in_flight:!c_inflight);
          if profiling then Obs.Span.leave prof
        end;
        let p = sum_progress P.progress states in
        Ledger.note_progress ledger p;
        if tracing then
          Obs.Sink.emit obs
            (Obs.Trace.Progress
               { round = r; progress = p; learnings = Ledger.learnings ledger });
        if p > !best_progress then begin
          best_progress := p;
          stagnant := 0
        end
        else begin
          incr stagnant;
          match stall_after with
          | Some w when !stagnant >= w -> stalled := true
          | Some _ | None -> ()
        end;
        (* Naive timeline: append at the back each round. *)
        timeline :=
          !timeline @ [ (r, Ledger.total ledger, Ledger.learnings ledger) ];
        prev := g;
        completed := stop states
      end;
      if profiling then Obs.Span.leave prof
    done;
    if tracing then begin
      Obs.Sink.emit obs
        (Obs.Trace.Run_end
           {
             rounds = !round;
             completed = !completed;
             messages = Ledger.total ledger;
           });
      Obs.Sink.flush obs
    end;
    let outcome =
      match !aborted with
      | Some reason -> Run_result.Aborted reason
      | None ->
          if !completed then Run_result.Completed
          else if !stalled then
            Run_result.Stalled { rounds_without_progress = !stagnant }
          else if !cancelled then
            Run_result.Cancelled
              {
                achieved = sum_progress P.progress states;
                target = target_progress;
              }
          else
            Run_result.Partial
              {
                achieved = sum_progress P.progress states;
                target = target_progress;
              }
    in
    ( Run_result.make ~outcome
        ?fault_counts:(if faulty then Some fcounts else None)
        ~rounds:!round ~completed:!completed ~ledger ~timeline:!timeline (),
      states )
end

module Unicast = struct
  let run (type s m) (module P : Runner_unicast.PROTOCOL
             with type state = s
              and type msg = m) ?(ctx = Ctx.default) ?init_prev
      ?target_progress ~(states : s array)
      ~(adversary : s Runner_unicast.adversary) ~max_rounds ~stop () =
    let n = Array.length states in
    let { Ctx.obs; faults; prof; on_graph; stall_after; cancel } = ctx in
    let ledger = Ledger.create () in
    let timeline = ref [] in
    let tracing = not (Obs.Sink.is_null obs) in
    let profiling = not (Obs.Span.is_null prof) in
    let frun = Faults.Plan.start faults ~n in
    let faulty = Faults.Plan.active frun in
    let fcounts = Faults.Plan.counts frun in
    let checking = Check.enabled () in
    let c_sent = ref 0 and c_created = ref 0 and c_consumed = ref 0 in
    let c_dropped = ref 0 and c_inflight = ref 0 in
    let initial = if faulty then Array.copy states else [||] in
    let delayed : m Delay_queue.t = Delay_queue.create () in
    let emit_fault ~round ~kind ~node ?dst ?cls () =
      if tracing then
        Obs.Sink.emit obs (Obs.Trace.Fault { round; kind; node; dst; cls })
    in
    let p0 = sum_progress P.progress states in
    Ledger.note_progress ledger p0;
    if tracing then
      Obs.Sink.emit obs
        (Obs.Trace.Progress { round = 0; progress = p0; learnings = 0 });
    let prev = ref (Option.value init_prev ~default:(Dynet.Graph.empty ~n)) in
    let traffic = ref ([] : Runner_unicast.traffic) in
    let best_progress = ref p0 in
    let stagnant = ref 0 in
    let stalled = ref false in
    let completed = ref (stop states) in
    let aborted = ref None in
    (* Cooperative cancellation, polled once per round boundary; see
       Runner_broadcast for the latching scheme. *)
    let cancelled = ref false in
    let cancel_requested () =
      (match cancel with
      | None -> ()
      | Some c -> if not !cancelled then cancelled := c ());
      !cancelled
    in
    let round = ref 0 in
    while
      (not !completed) && (not !stalled) && Option.is_none !aborted
      && (not (cancel_requested ()))
      && !round < max_rounds
    do
      incr round;
      let r = !round in
      if tracing then Obs.Sink.emit obs (Obs.Trace.Round_start { round = r });
      if profiling then begin
        Obs.Span.enter prof ~cat:"round" "round";
        Obs.Span.add_counter prof "round" (float_of_int r)
      end;
      if faulty then begin
        if profiling then Obs.Span.enter prof ~cat:"phase" "faults";
        Faults.Plan.begin_round frun ~round:r
          ~on_crash:(fun v -> emit_fault ~round:r ~kind:"crash" ~node:v ())
          ~on_restart:(fun v ->
            states.(v) <- initial.(v);
            emit_fault ~round:r ~kind:"restart" ~node:v ());
        if Faults.Plan.doomed frun then
          aborted := Some "all nodes crashed with no possible restart";
        if profiling then Obs.Span.leave prof
      end;
      if Option.is_none !aborted then begin
        if profiling then Obs.Span.enter prof ~cat:"phase" "adversary";
        let g = adversary ~round:r ~prev:!prev ~states ~traffic:!traffic in
        if profiling then begin
          Obs.Span.leave prof;
          Obs.Span.enter prof ~cat:"phase" "graph"
        end;
        Engine_error.check_graph ~round:r ~n g;
        (match on_graph with None -> () | Some f -> f ~round:r g);
        let tc0 = Ledger.tc ledger and rm0 = Ledger.removals ledger in
        Ledger.note_graph_change ledger ~prev:!prev ~cur:g;
        if tracing then
          Obs.Sink.emit obs
            (Obs.Trace.Graph_change
               {
                 round = r;
                 added = Ledger.tc ledger - tc0;
                 removed = Ledger.removals ledger - rm0;
               });
        Ledger.note_round ledger;
        if profiling then begin
          Obs.Span.leave prof;
          Obs.Span.enter prof ~cat:"phase" "send"
        end;
        let inboxes = Array.make n [] in
        let round_traffic = ref [] in
        (* The per-round bandwidth bookkeeping of Section 1.3, kept the
           way the paper states it: the set of directed edges a token
           has crossed this round, as a plain list scanned linearly. *)
        let tokens_crossed = ref ([] : (int * int) list) in
        for v = 0 to n - 1 do
          if (not faulty) || Faults.Plan.alive frun v then begin
            let neighbors = Dynet.Graph.neighbors g v in
            let st, out = P.send states.(v) ~round:r ~neighbors in
            states.(v) <- st;
            List.iter
              (fun (dst, m) ->
                (* Linear scan over the neighbor row — no binary
                   search. *)
                if not (Array.exists (fun u -> u = dst) neighbors) then
                  raise
                    (Engine_error.Protocol_violation
                       (Printf.sprintf
                          "round %d: node %d sent to non-neighbor %d" r v dst));
                let cls = P.classify m in
                (match cls with
                | Msg_class.Token | Msg_class.Walk ->
                    if
                      List.exists
                        (fun (a, b) -> a = v && b = dst)
                        !tokens_crossed
                    then
                      raise
                        (Engine_error.Protocol_violation
                           (Printf.sprintf
                              "round %d: node %d sent two tokens to %d in \
                               one round"
                              r v dst));
                    tokens_crossed := (v, dst) :: !tokens_crossed
                | Msg_class.Completeness | Msg_class.Request
                | Msg_class.Center | Msg_class.Control ->
                    ());
                Ledger.record ledger cls 1;
                Ledger.record_sender ledger v 1;
                if checking then incr c_sent;
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
                if not faulty then begin
                  if checking then incr c_created;
                  inboxes.(dst) <- (v, m) :: inboxes.(dst)
                end
                else
                  let cls_name = Msg_class.to_string cls in
                  match Faults.Plan.deliveries frun with
                  | None ->
                      if checking then begin
                        incr c_created;
                        incr c_dropped
                      end;
                      emit_fault ~round:r ~kind:"drop" ~node:v ~dst
                        ~cls:cls_name ()
                  | Some delays ->
                      if checking then
                        c_created := !c_created + List.length delays;
                      if List.length delays > 1 then
                        emit_fault ~round:r ~kind:"dup" ~node:v ~dst
                          ~cls:cls_name ();
                      List.iter
                        (fun d ->
                          if d = 0 then
                            inboxes.(dst) <- (v, m) :: inboxes.(dst)
                          else begin
                            if checking then incr c_inflight;
                            emit_fault ~round:r ~kind:"delay" ~node:v ~dst
                              ~cls:cls_name ();
                            Delay_queue.push delayed ~due:(r + d) (dst, v, m)
                          end)
                        delays)
              out
          end
        done;
        if profiling then Obs.Span.leave prof;
        if faulty then begin
          if profiling then Obs.Span.enter prof ~cat:"phase" "deliver";
          let due = Delay_queue.take delayed ~round:r in
          if checking then c_inflight := !c_inflight - List.length due;
          List.iter
            (fun (dst, src, m) -> inboxes.(dst) <- (src, m) :: inboxes.(dst))
            due;
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
          done;
          if profiling then Obs.Span.leave prof
        end;
        if profiling then Obs.Span.enter prof ~cat:"phase" "receive";
        for v = 0 to n - 1 do
          if (not faulty) || Faults.Plan.alive frun v then begin
            let inbox =
              List.stable_sort
                (fun (a, _) (b, _) -> Dynet.Node_id.compare a b)
                (List.rev inboxes.(v))
            in
            if checking then c_consumed := !c_consumed + List.length inbox;
            states.(v) <-
              P.receive states.(v) ~round:r
                ~neighbors:(Dynet.Graph.neighbors g v) ~inbox
          end
        done;
        if profiling then Obs.Span.leave prof;
        if checking then begin
          if profiling then Obs.Span.enter prof ~cat:"phase" "check";
          Check.connected
            ~what:(Printf.sprintf "round %d: adversary graph connectivity" r)
            g;
          Check.require ~what:"ledger total equals physical sends" (fun () ->
              Ledger.total ledger = !c_sent);
          Check.require ~what:"message-copy conservation" (fun () ->
              Check.conserved ~created:!c_created ~consumed:!c_consumed
                ~dropped:!c_dropped ~in_flight:!c_inflight);
          if profiling then Obs.Span.leave prof
        end;
        let p = sum_progress P.progress states in
        Ledger.note_progress ledger p;
        if tracing then
          Obs.Sink.emit obs
            (Obs.Trace.Progress
               { round = r; progress = p; learnings = Ledger.learnings ledger });
        if p > !best_progress then begin
          best_progress := p;
          stagnant := 0
        end
        else begin
          incr stagnant;
          match stall_after with
          | Some w when !stagnant >= w -> stalled := true
          | Some _ | None -> ()
        end;
        timeline :=
          !timeline @ [ (r, Ledger.total ledger, Ledger.learnings ledger) ];
        prev := g;
        traffic := List.rev !round_traffic;
        completed := stop states
      end;
      if profiling then Obs.Span.leave prof
    done;
    if tracing then begin
      Obs.Sink.emit obs
        (Obs.Trace.Run_end
           {
             rounds = !round;
             completed = !completed;
             messages = Ledger.total ledger;
           });
      Obs.Sink.flush obs
    end;
    let outcome =
      match !aborted with
      | Some reason -> Run_result.Aborted reason
      | None ->
          if !completed then Run_result.Completed
          else if !stalled then
            Run_result.Stalled { rounds_without_progress = !stagnant }
          else if !cancelled then
            Run_result.Cancelled
              {
                achieved = sum_progress P.progress states;
                target = target_progress;
              }
          else
            Run_result.Partial
              {
                achieved = sum_progress P.progress states;
                target = target_progress;
              }
    in
    ( Run_result.make ~outcome
        ?fault_counts:(if faulty then Some fcounts else None)
        ~rounds:!round ~completed:!completed ~ledger ~timeline:!timeline (),
      states )
end

module E = struct
  let name = name

  module Broadcast = Broadcast
  module Unicast = Unicast
end

let engine = (module E : Engine_sig.ENGINE)

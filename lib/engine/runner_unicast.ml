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

let run (type s m) (module P : PROTOCOL with type state = s and type msg = m)
    ?(ctx = Ctx.default) ?init_prev ?target_progress ~(states : s array)
    ~(adversary : s adversary)
    ~max_rounds ~stop () =
  let n = Array.length states in
  let ledger = Ledger.create () in
  let { Ctx.obs; faults; _ } = ctx in
  (* Hoisted so the default Null sink costs one boolean test per
     emission site and never allocates an event. *)
  let tracing = not (Obs.Sink.is_null obs) in
  (* Same null-object pattern for the fault layer: with
     [Faults.Plan.none] every fault hook below is behind one hoisted
     boolean and the round loop is the pre-fault-layer code path. *)
  let frun = Faults.Plan.start faults ~n in
  let faulty = Faults.Plan.active frun in
  let fcounts = Faults.Plan.counts frun in
  (* Invariant layer, hoisted like [tracing]/[faulty]: with --check off
     the counters below are never touched and no predicate runs.  The
     counters track message *copies* through the delivery layer —
     created at send (duplication creates extras, a send-time drop
     destroys the copy), consumed at receive, destroyed with a dead
     node's inbox, or delayed in flight — so the round-end conservation
     check catches any accounting drift between the ledger and the
     physical delivery path. *)
  let checking = Check.enabled () in
  let c_sent = ref 0 and c_created = ref 0 and c_consumed = ref 0 in
  let c_dropped = ref 0 and c_inflight = ref 0 in
  (* Initial states, snapshotted for crash-restart state loss. *)
  let initial = if faulty then Array.copy states else [||] in
  (* Delayed deliveries: due round -> (dst, src, msg) in send order. *)
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
  (* One bit per ordered (src, dst) pair, allocated once and cleared
     per round — replaces a fresh per-round Hashtbl keyed by tuples. *)
  let token_sent = Dynet.Bitset.create (n * n) in
  let traffic = ref ([] : traffic) in
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
      Ctx.phase run "adversary";
      let g = adversary ~round:r ~prev:!prev ~states ~traffic:!traffic in
      Ctx.phase run "graph";
      Engine_error.check_graph ~round:r ~n g;
      Ctx.commit_graph run ~prev:!prev g;
      Ctx.phase run "send";
      let inboxes = Array.make n [] in
      let round_traffic = ref [] in
      Dynet.Bitset.clear token_sent;
      for v = 0 to n - 1 do
        if (not faulty) || Faults.Plan.alive frun v then begin
          let neighbors = Dynet.Graph.neighbors g v in
          let st, out = P.send states.(v) ~round:r ~neighbors in
          states.(v) <- st;
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
                  let pair = (v * n) + dst in
                  if Dynet.Bitset.mem token_sent pair then
                    raise
                      (Engine_error.Protocol_violation
                         (Printf.sprintf
                            "round %d: node %d sent two tokens to %d in one round"
                            r v dst));
                  Dynet.Bitset.set token_sent pair
              | Msg_class.Completeness | Msg_class.Request | Msg_class.Center
              | Msg_class.Control ->
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
              (* Collect in reverse, fix sender order below. *)
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
                        if d = 0 then inboxes.(dst) <- (v, m) :: inboxes.(dst)
                        else begin
                          if checking then incr c_inflight;
                          emit_fault ~round:r ~kind:"delay" ~node:v ~dst
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
                          cell := (dst, v, m) :: !cell
                        end)
                      delays)
            out
        end
      done;
      if faulty then begin
        Ctx.phase run "deliver";
        (* Messages whose bounded delay expires this round arrive now,
           after the on-time traffic (the sort below interleaves them
           into sender order). *)
        (match Hashtbl.find_opt delayed r with
        | None -> ()
        | Some cell ->
            if checking then
              c_inflight := !c_inflight - List.length !cell;
            List.iter
              (fun (dst, src, m) -> inboxes.(dst) <- (src, m) :: inboxes.(dst))
              (List.rev !cell);
            Hashtbl.remove delayed r);
        (* A node crashed at delivery time loses its whole inbox. *)
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
        done
      end;
      Ctx.phase run "receive";
      for v = 0 to n - 1 do
        if (not faulty) || Faults.Plan.alive frun v then begin
          let inbox =
            List.stable_sort (fun (a, _) (b, _) -> Dynet.Node_id.compare a b)
              (List.rev inboxes.(v))
          in
          if checking then c_consumed := !c_consumed + List.length inbox;
          states.(v) <-
            P.receive states.(v) ~round:r ~neighbors:(Dynet.Graph.neighbors g v)
              ~inbox
        end
      done;
      if checking then begin
        Ctx.phase run "check";
        Check.connected
          ~what:(Printf.sprintf "round %d: adversary graph connectivity" r)
          g;
        Check.require ~what:"ledger total equals physical sends" (fun () ->
            Ledger.total ledger = !c_sent);
        Check.require ~what:"message-copy conservation" (fun () ->
            Check.conserved ~created:!c_created ~consumed:!c_consumed
              ~dropped:!c_dropped ~in_flight:!c_inflight)
      end;
      prev := g;
      traffic := List.rev !round_traffic;
      Ctx.round_done run
    end
  done;
  ( Ctx.finish run ~fault_counts:(if faulty then Some fcounts else None),
    states )

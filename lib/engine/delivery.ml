open Dynet.Ops

type ('s, 'm) t = {
  frun : Faults.Plan.run;
  faulty : bool;
  checking : bool;
  obs : Obs.Sink.t;
  tracing : bool;
  classify : 'm -> Msg_class.t;
  states : 's array;
  initial : 's array;  (* snapshot for crash-restart state loss *)
  (* Delayed copies: due round -> (dst, src, msg), latest first. *)
  delayed : (int, (Dynet.Node_id.t * Dynet.Node_id.t * 'm) list ref) Hashtbl.t;
  (* Message-copy accounting, fed only when [checking]: a copy is
     created at send (duplication creates extras, a send-time drop
     destroys it at once), then consumed at receive, dropped with a
     crashed node's inbox, or held in flight by a delay. *)
  mutable c_sent : int;
  mutable c_created : int;
  mutable c_consumed : int;
  mutable c_dropped : int;
  mutable c_inflight : int;
}

let start (ctx : Ctx.t) ~classify states =
  let frun = Faults.Plan.start ctx.Ctx.faults ~n:(Array.length states) in
  let faulty = Faults.Plan.active frun in
  {
    frun;
    faulty;
    checking = Check.enabled ();
    obs = ctx.Ctx.obs;
    tracing = not (Obs.Sink.is_null ctx.Ctx.obs);
    classify;
    states;
    initial = (if faulty then Array.copy states else [||]);
    delayed = Hashtbl.create 16;
    c_sent = 0;
    c_created = 0;
    c_consumed = 0;
    c_dropped = 0;
    c_inflight = 0;
  }

let faulty d = d.faulty
let checking d = d.checking
let alive d v = (not d.faulty) || Faults.Plan.alive d.frun v

let emit_fault d ~round ~kind ~node ?dst ?cls () =
  if d.tracing then
    Obs.Sink.emit d.obs (Obs.Trace.Fault { round; kind; node; dst; cls })

let begin_round d run =
  if d.faulty then begin
    let round = Ctx.round run in
    Ctx.phase run "faults";
    Faults.Plan.begin_round d.frun ~round
      ~on_crash:(fun v -> emit_fault d ~round ~kind:"crash" ~node:v ())
      ~on_restart:(fun v ->
        d.states.(v) <- d.initial.(v);
        emit_fault d ~round ~kind:"restart" ~node:v ());
    if Faults.Plan.doomed d.frun then
      Ctx.abort run "all nodes crashed with no possible restart"
  end

let deliver d ~inboxes ~round ~src ~dst m =
  let cls = Msg_class.to_string (d.classify m) in
  match Faults.Plan.deliveries d.frun with
  | None ->
      if d.checking then begin
        d.c_created <- d.c_created + 1;
        d.c_dropped <- d.c_dropped + 1
      end;
      emit_fault d ~round ~kind:"drop" ~node:src ~dst ~cls ()
  | Some delays ->
      if d.checking then d.c_created <- d.c_created + List.length delays;
      if List.length delays > 1 then
        emit_fault d ~round ~kind:"dup" ~node:src ~dst ~cls ();
      List.iter
        (fun delay ->
          if delay = 0 then inboxes.(dst) <- (src, m) :: inboxes.(dst)
          else begin
            if d.checking then d.c_inflight <- d.c_inflight + 1;
            emit_fault d ~round ~kind:"delay" ~node:src ~dst ~cls ();
            let due = round + delay in
            match Hashtbl.find_opt d.delayed due with
            | Some cell -> cell := (dst, src, m) :: !cell
            | None -> Hashtbl.add d.delayed due (ref [ (dst, src, m) ])
          end)
        delays

let settle d ~inboxes ~round =
  (match Hashtbl.find_opt d.delayed round with
  | None -> ()
  | Some cell ->
      if d.checking then d.c_inflight <- d.c_inflight - List.length !cell;
      List.iter
        (fun (dst, src, m) -> inboxes.(dst) <- (src, m) :: inboxes.(dst))
        (List.rev !cell);
      Hashtbl.remove d.delayed round);
  let fcounts = Faults.Plan.counts d.frun in
  for v = 0 to Array.length d.states - 1 do
    if not (Faults.Plan.alive d.frun v) then begin
      if d.checking then d.c_dropped <- d.c_dropped + List.length inboxes.(v);
      List.iter
        (fun (src, m) ->
          fcounts.Faults.Counts.drops <- fcounts.Faults.Counts.drops + 1;
          emit_fault d ~round ~kind:"drop" ~node:src ~dst:v
            ~cls:(Msg_class.to_string (d.classify m)) ())
        (List.rev inboxes.(v));
      inboxes.(v) <- []
    end
  done

let sent d k = d.c_sent <- d.c_sent + k
let created d k = d.c_created <- d.c_created + k
let consumed d k = d.c_consumed <- d.c_consumed + k

let check_round d run ~ledger g =
  if d.checking then begin
    Ctx.phase run "check";
    Check.connected
      ~what:
        (Printf.sprintf "round %d: adversary graph connectivity" (Ctx.round run))
      g;
    Check.require ~what:"ledger total equals messages sent" (fun () ->
        Ledger.total ledger = d.c_sent);
    Check.require ~what:"message-copy conservation" (fun () ->
        Check.conserved ~created:d.c_created ~consumed:d.c_consumed
          ~dropped:d.c_dropped ~in_flight:d.c_inflight)
  end

let fault_counts d =
  if d.faulty then Some (Faults.Plan.counts d.frun) else None

open Dynet.Ops

type t = {
  obs : Obs.Sink.t;
  faults : Faults.Plan.t;
  prof : Obs.Span.t;
  on_graph : (round:int -> Dynet.Graph.t -> unit) option;
  stall_after : int option;
  cancel : (unit -> bool) option;
}

let make ?(obs = Obs.Sink.null) ?(faults = Faults.Plan.none)
    ?(prof = Obs.Span.null) ?on_graph ?stall_after ?cancel () =
  { obs; faults; prof; on_graph; stall_after; cancel }

let default = make ()

(* Growable int log for the timeline: the round loop appends two ints
   per round with amortized-doubling growth, and the [(round, total,
   learnings)] list the result needs is materialised once at the end,
   outside the hot loop. *)
module Ilog = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 256 0; len = 0 }

  let push t x =
    if t.len = Array.length t.a then begin
      let a' = Array.make (2 * t.len) 0 in
      Array.blit t.a 0 a' 0 t.len;
      t.a <- a'
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1
end

(* A round writes only immediates into [run] and its logs, so the
   per-round calls below allocate nothing (beyond amortized log growth)
   unless tracing or profiling is on — the SoA plane kernel's
   allocation-free steady state depends on it. *)
type run = {
  ctx : t;
  n : int;
  ledger : Ledger.t;
  max_rounds : int;
  target : int option;
  measure : unit -> int;
  stop : unit -> bool;
  tracing : bool;
  profiling : bool;
  totals : Ilog.t;
  learnings : Ilog.t;
  mutable round : int;
  mutable in_round : bool;  (* a round span is open *)
  mutable in_phase : bool;  (* a phase span is open *)
  mutable progress : int;
  mutable best : int;
  mutable stagnant : int;
  mutable stalled : bool;
  mutable completed : bool;
  mutable cancelled : bool;
  mutable aborted : string option;
  mutable last_valid : Dynet.Graph.t;
      (* the last graph [commit_graph] validated *)
}

let start ctx ~n ~ledger ~max_rounds ~target ~progress:measure ~stop =
  let tracing = not (Obs.Sink.is_null ctx.obs) in
  let progress = measure () in
  Ledger.note_progress ledger progress;
  if tracing then
    Obs.Sink.emit ctx.obs
      (Obs.Trace.Progress { round = 0; progress; learnings = 0 });
  {
    ctx;
    n;
    ledger;
    max_rounds;
    target;
    measure;
    stop;
    tracing;
    profiling = not (Obs.Span.is_null ctx.prof);
    totals = Ilog.create ();
    learnings = Ilog.create ();
    round = 0;
    in_round = false;
    in_phase = false;
    progress;
    best = progress;
    stagnant = 0;
    stalled = false;
    completed = stop ();
    cancelled = false;
    aborted = None;
    (* A fresh sentinel no adversary can hand back, so round 1 is
       always checked. *)
    last_valid = Dynet.Graph.empty ~n;
  }

(* Latched: once the caller's poll returns true the run is cancelled
   for good and the poll never fires again. *)
let cancel_requested r =
  (match r.ctx.cancel with
  | None -> ()
  | Some c -> if not r.cancelled then r.cancelled <- c ());
  r.cancelled

let end_phase r =
  if r.in_phase then begin
    Obs.Span.leave r.ctx.prof;
    r.in_phase <- false
  end

let next r =
  if r.in_round then begin
    end_phase r;
    Obs.Span.leave r.ctx.prof;
    r.in_round <- false
  end;
  let go =
    (not r.completed) && (not r.stalled) && Option.is_none r.aborted
    && (not (cancel_requested r))
    && r.round < r.max_rounds
  in
  if go then begin
    r.round <- r.round + 1;
    let round = r.round in
    if r.tracing then Obs.Sink.emit r.ctx.obs (Obs.Trace.Round_start { round });
    if r.profiling then begin
      Obs.Span.enter r.ctx.prof ~cat:"round" "round";
      Obs.Span.add_counter r.ctx.prof "round" (float_of_int round);
      r.in_round <- true
    end
  end;
  go

let round r = r.round

let phase r name =
  if r.profiling then begin
    if r.in_phase then Obs.Span.leave r.ctx.prof;
    Obs.Span.enter r.ctx.prof ~cat:"phase" name;
    r.in_phase <- true
  end

(* A graph physically equal to the last one validated (what Stability
   and a held replay return on stable rounds) cannot have changed its
   node count or connectivity, so only a new graph pays the O(n + m)
   check. *)
let commit_graph r ~prev g =
  if g != r.last_valid then begin
    Engine_error.check_graph ~round:r.round ~n:r.n g;
    r.last_valid <- g
  end;
  (match r.ctx.on_graph with None -> () | Some f -> f ~round:r.round g);
  let ledger = r.ledger in
  let tc0 = Ledger.tc ledger and rm0 = Ledger.removals ledger in
  Ledger.note_graph_change ledger ~prev ~cur:g;
  let added = Ledger.tc ledger - tc0
  and removed = Ledger.removals ledger - rm0 in
  if r.tracing then
    Obs.Sink.emit r.ctx.obs
      (Obs.Trace.Graph_change { round = r.round; added; removed });
  Ledger.note_round ledger;
  added <> 0 || removed <> 0

let round_done r =
  end_phase r;
  let ledger = r.ledger in
  let progress = r.measure () in
  Ledger.note_progress ledger progress;
  r.progress <- progress;
  if r.tracing then
    Obs.Sink.emit r.ctx.obs
      (Obs.Trace.Progress
         { round = r.round; progress; learnings = Ledger.learnings ledger });
  if progress > r.best then begin
    r.best <- progress;
    r.stagnant <- 0
  end
  else begin
    r.stagnant <- r.stagnant + 1;
    match r.ctx.stall_after with
    | Some w when r.stagnant >= w -> r.stalled <- true
    | Some _ | None -> ()
  end;
  Ilog.push r.totals (Ledger.total ledger);
  Ilog.push r.learnings (Ledger.learnings ledger);
  r.completed <- r.stop ()

let abort r reason = r.aborted <- Some reason
let aborted r = Option.is_some r.aborted

let finish r ~fault_counts =
  if r.tracing then begin
    Obs.Sink.emit r.ctx.obs
      (Obs.Trace.Run_end
         {
           rounds = r.round;
           completed = r.completed;
           messages = Ledger.total r.ledger;
         });
    Obs.Sink.flush r.ctx.obs
  end;
  let outcome =
    match r.aborted with
    | Some reason -> Run_result.Aborted reason
    | None ->
        if r.completed then Run_result.Completed
        else if r.stalled then
          Run_result.Stalled { rounds_without_progress = r.stagnant }
        else if r.cancelled then
          Run_result.Cancelled { achieved = r.progress; target = r.target }
        else Run_result.Partial { achieved = r.progress; target = r.target }
  in
  let timeline =
    List.init r.totals.Ilog.len (fun i ->
        (i + 1, r.totals.Ilog.a.(i), r.learnings.Ilog.a.(i)))
  in
  Run_result.make ~outcome ?fault_counts ~rounds:r.round
    ~completed:r.completed ~ledger:r.ledger ~timeline ()

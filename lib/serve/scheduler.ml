open Dynet.Ops

(* The serve daemon's job scheduler: a bounded admission queue, fair
   round-robin across clients, and a persistent pool of worker domains
   (spawned once at [create], parked on a condition variable between
   jobs — the Shard_pool discipline at job rather than barrier
   granularity).

   Ownership: every mutable field of [t] and of a [job] except its
   [cancel] flag is guarded by [t.m].  The [cancel] flag is an Atomic
   because the engines poll it from the worker domain mid-run while
   sessions set it from the server's event loop.  The [notify]
   callback runs on worker domains and must therefore be thread-safe
   (the server's is: it appends to per-session outboxes under their
   own locks and tickles a self-pipe).

   Determinism: a job's reports are produced by running
   [Scenario.Runner.run_repeat] over the prepared seeds sequentially
   on one worker.  [run_repeat] depends only on [(prepared, seed)], so
   the report bytes are independent of pool size, queue order, and
   which worker ran the job — the jobs-independence property the
   tests pin down. *)

type outcome = Completed | Cancelled | Failed of string

let outcome_name = function
  | Completed -> "completed"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

type notification =
  | Started of { job : int }
  | Event of { job : int; line : string }
  | Report of { job : int; index : int; line : string }
  | Finished of { job : int; outcome : outcome; reports : int }

type state = Queued | Running | Finished_ of outcome

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Finished_ o -> outcome_name o

type job = {
  jid : int;
  client : int;
  name : string;
  prepared : Scenario.Runner.prepared;
  engine : (module Engine.Engine_sig.ENGINE) option;
  events : bool;
  cancel : bool Atomic.t;
  mutable state : state;
  mutable reports : int;
}

type t = {
  m : Mutex.t;
  work : Condition.t;  (* new work, or stopping *)
  queue_cap : int;
  notify : notification -> unit;
  queues : (int, job Queue.t) Hashtbl.t;  (* client -> pending, nonempty *)
  rr : int Queue.t;  (* round-robin rotation: the keys of [queues] *)
  jobs : (int, job) Hashtbl.t;  (* every job ever admitted *)
  busy : float array;  (* per-worker busy seconds *)
  mutable queued_total : int;
  mutable running : int;
  mutable stopping : bool;
  mutable next_jid : int;
  mutable submitted : int;
  mutable completed : int;
  mutable cancelled : int;
  mutable failed : int;
  mutable rejected : int;
  mutable workers : unit Domain.t array;
}

type stats = {
  workers : int;
  queue_depth : int;
  running_jobs : int;
  submitted : int;
  completed : int;
  cancelled : int;
  failed : int;
  rejected : int;
  busy_seconds : float array;
}

type admission =
  | Admitted of { job : int; queue_depth : int }
  | Refused of { reason : string; queue_depth : int }

(* Callers hold [t.m]. *)
let rec take_next t =
  if Queue.is_empty t.rr then None
  else
    let c = Queue.pop t.rr in
    match Hashtbl.find_opt t.queues c with
    | None -> take_next t
    | Some q ->
        let job = Queue.pop q in
        if Queue.is_empty q then Hashtbl.remove t.queues c
        else Queue.push c t.rr;
        t.queued_total <- t.queued_total - 1;
        Some job

let execute t job =
  let obs =
    if job.events then
      Obs.Sink.Custom
        (fun ev ->
          t.notify
            (Event
               {
                 job = job.jid;
                 line = Obs.Json.to_string (Obs.Trace.to_json ev);
               }))
    else Obs.Sink.null
  in
  let cancel () = Atomic.get job.cancel in
  let streamed = ref 0 in
  match
    Array.iter
      (fun seed ->
        (* A cancel lands once: the repeat it interrupts still streams
           its partial-coverage report, but no later repeat starts —
           without this check every remaining seed would produce an
           instant zero-round stub and a cancelled 500-repeat job
           would still stream 500 reports. *)
        if Atomic.get job.cancel then raise Stdlib.Exit;
        let r =
          Scenario.Runner.run_repeat ?engine:job.engine ~obs ~cancel
            job.prepared ~seed
        in
        let line = Obs.Json.to_string (Obs.Report.to_json r) in
        let index = !streamed in
        incr streamed;
        Mutex.lock t.m;
        job.reports <- !streamed;
        Mutex.unlock t.m;
        t.notify (Report { job = job.jid; index; line }))
      job.prepared.Scenario.Runner.seeds
  with
  | () | (exception Stdlib.Exit) ->
      ((if Atomic.get job.cancel then Cancelled else Completed), !streamed)
  | exception e ->
      (* Engine violations (protocol/adversary/check) and anything
         else a run throws turn into a Failed outcome on this job —
         the daemon keeps serving. *)
      (Failed (Printexc.to_string e), !streamed)

let finish t job outcome ~reports ~was_running =
  Mutex.lock t.m;
  if was_running then t.running <- t.running - 1;
  job.state <- Finished_ outcome;
  (match outcome with
  | Completed -> t.completed <- t.completed + 1
  | Cancelled -> t.cancelled <- t.cancelled + 1
  | Failed _ -> t.failed <- t.failed + 1);
  Mutex.unlock t.m;
  t.notify (Finished { job = job.jid; outcome; reports })

let rec worker_loop t ~w =
  Mutex.lock t.m;
  let rec await () =
    match take_next t with
    | Some job -> Some job
    | None ->
        if t.stopping then None
        else begin
          Condition.wait t.work t.m;
          await ()
        end
  in
  match await () with
  | None -> Mutex.unlock t.m
  | Some job ->
      if Atomic.get job.cancel then begin
        (* Cancelled while still queued: never ran, zero reports. *)
        Mutex.unlock t.m;
        finish t job Cancelled ~reports:0 ~was_running:false;
        worker_loop t ~w
      end
      else begin
        job.state <- Running;
        t.running <- t.running + 1;
        Mutex.unlock t.m;
        t.notify (Started { job = job.jid });
        let t0 = Obs.Span.now_s () in
        let outcome, reports = execute t job in
        let dt = Obs.Span.now_s () -. t0 in
        Mutex.lock t.m;
        t.busy.(w) <- t.busy.(w) +. dt;
        Mutex.unlock t.m;
        finish t job outcome ~reports ~was_running:true;
        worker_loop t ~w
      end

let create ?(workers = 2) ?(queue_cap = 128) ~notify () =
  if workers < 1 then invalid_arg "Scheduler.create: workers must be >= 1";
  if queue_cap < 1 then
    invalid_arg "Scheduler.create: queue_cap must be >= 1";
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      queue_cap;
      notify;
      queues = Hashtbl.create 16;
      rr = Queue.create ();
      jobs = Hashtbl.create 64;
      busy = Array.make workers 0.;
      queued_total = 0;
      running = 0;
      stopping = false;
      next_jid = 1;
      submitted = 0;
      completed = 0;
      cancelled = 0;
      failed = 0;
      rejected = 0;
      workers = [||];
    }
  in
  t.workers <-
    Array.init workers (fun w -> Domain.spawn (fun () -> worker_loop t ~w));
  t

let submit t ~client ~name ~prepared ?engine ~events () =
  Mutex.lock t.m;
  if t.stopping then begin
    t.rejected <- t.rejected + 1;
    let depth = t.queued_total in
    Mutex.unlock t.m;
    Refused { reason = "daemon is shutting down"; queue_depth = depth }
  end
  else if t.queued_total >= t.queue_cap then begin
    t.rejected <- t.rejected + 1;
    let depth = t.queued_total in
    Mutex.unlock t.m;
    Refused
      {
        reason = Printf.sprintf "queue full (cap %d)" t.queue_cap;
        queue_depth = depth;
      }
  end
  else begin
    let jid = t.next_jid in
    t.next_jid <- jid + 1;
    let job =
      {
        jid;
        client;
        name;
        prepared;
        engine;
        events;
        cancel = Atomic.make false;
        state = Queued;
        reports = 0;
      }
    in
    Hashtbl.replace t.jobs jid job;
    (match Hashtbl.find_opt t.queues client with
    | Some q -> Queue.push job q
    | None ->
        let q = Queue.create () in
        Queue.push job q;
        Hashtbl.replace t.queues client q;
        Queue.push client t.rr);
    t.queued_total <- t.queued_total + 1;
    t.submitted <- t.submitted + 1;
    let depth = t.queued_total in
    Condition.signal t.work;
    Mutex.unlock t.m;
    Admitted { job = jid; queue_depth = depth }
  end

let cancel t jid =
  Mutex.lock t.m;
  let r =
    match Hashtbl.find_opt t.jobs jid with
    | None -> None
    | Some job ->
        let was = state_name job.state in
        (match job.state with
        | Queued | Running -> Atomic.set job.cancel true
        | Finished_ _ -> ());
        Some was
  in
  Mutex.unlock t.m;
  r

let job_state t jid =
  Mutex.lock t.m;
  let r =
    match Hashtbl.find_opt t.jobs jid with
    | None -> None
    | Some job -> Some (state_name job.state, job.reports)
  in
  Mutex.unlock t.m;
  r

let job_views t ?job () =
  Mutex.lock t.m;
  let views =
    match job with
    | Some jid -> (
        match Hashtbl.find_opt t.jobs jid with
        | None -> []
        | Some j ->
            [
              {
                Rpc.job = j.jid;
                name = j.name;
                state = state_name j.state;
                reports = j.reports;
              };
            ])
    | None ->
        Hashtbl.fold
          (fun _ j acc ->
            {
              Rpc.job = j.jid;
              name = j.name;
              state = state_name j.state;
              reports = j.reports;
            }
            :: acc)
          t.jobs []
        |> List.sort (fun a b -> Int.compare a.Rpc.job b.Rpc.job)
  in
  let depth = t.queued_total and running = t.running in
  Mutex.unlock t.m;
  (views, depth, running)

let stats t =
  Mutex.lock t.m;
  let s =
    {
      workers = Array.length t.workers;
      queue_depth = t.queued_total;
      running_jobs = t.running;
      submitted = t.submitted;
      completed = t.completed;
      cancelled = t.cancelled;
      failed = t.failed;
      rejected = t.rejected;
      busy_seconds = Array.copy t.busy;
    }
  in
  Mutex.unlock t.m;
  s

let idle t =
  Mutex.lock t.m;
  let r = t.queued_total = 0 && t.running = 0 in
  Mutex.unlock t.m;
  r

let shutdown ?(mode = `Drain) t =
  Mutex.lock t.m;
  t.stopping <- true;
  (match mode with
  | `Drain -> ()
  | `Cancel ->
      (* Signal-driven teardown: stop everything at the next round
         boundary instead of running the backlog out. *)
      Hashtbl.iter
        (fun _ job ->
          match job.state with
          | Queued | Running -> Atomic.set job.cancel true
          | Finished_ _ -> ())
        t.jobs);
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers

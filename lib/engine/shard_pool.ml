open Dynet.Ops

(* A persistent Domain pool for intra-run node-space sharding: the
   round loop fires the same preallocated job closures thousands of
   times, so workers are spawned once per run and parked on a
   condition variable between phases instead of paying a Domain spawn
   per barrier.  Shard 0 always executes on the calling domain — with
   [shards = 1] the pool degenerates to a plain call and owns no
   domains, locks, or state at all.

   Determinism contract (the same one Analysis.Sweep makes at run
   granularity): a job writes only state owned by its shard's node
   range [lo, hi), so the outcome of a phase is independent of worker
   interleaving, and any cross-shard combination happens in the
   caller's sequential code between phases, in ascending shard order.
   Worker exceptions are captured and re-raised on the caller after
   the barrier, lowest shard first — again interleaving-independent. *)

type job = shard:int -> lo:int -> hi:int -> unit

let ranges ~n ~shards =
  if shards < 1 then invalid_arg "Shard_pool.ranges: shards must be >= 1";
  let per = (n + shards - 1) / shards in
  Array.init shards (fun i ->
      let lo = min n (i * per) in
      let hi = min n (lo + per) in
      (lo, hi))

let no_job : job = fun ~shard:_ ~lo:_ ~hi:_ -> ()

type shared = {
  mutable job : job;
  mutable epoch : int;
  mutable done_count : int;
  mutable failures : (int * exn) list;
  mutable stopping : bool;
  m : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
}

type t = {
  shards : int;
  spans : (int * int) array;
  shared : shared option;
  workers : unit Domain.t array;
}

let shards t = t.shards
let span t i = t.spans.(i)

let worker_loop shared ~shard ~lo ~hi =
  let my_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock shared.m;
    while shared.epoch = !my_epoch && not shared.stopping do
      Condition.wait shared.work shared.m
    done;
    if shared.stopping then begin
      Mutex.unlock shared.m;
      running := false
    end
    else begin
      my_epoch := shared.epoch;
      let job = shared.job in
      Mutex.unlock shared.m;
      let failure =
        match job ~shard ~lo ~hi with () -> None | exception e -> Some e
      in
      Mutex.lock shared.m;
      (match failure with
      | None -> ()
      | Some e -> shared.failures <- (shard, e) :: shared.failures);
      shared.done_count <- shared.done_count + 1;
      Condition.signal shared.finished;
      Mutex.unlock shared.m
    end
  done

let create ~spans =
  let shards = Array.length spans in
  if shards < 1 then invalid_arg "Shard_pool.create: need at least one shard";
  if shards = 1 then { shards; spans; shared = None; workers = [||] }
  else begin
    let shared =
      {
        job = no_job;
        epoch = 0;
        done_count = 0;
        failures = [];
        stopping = false;
        m = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
      }
    in
    let workers =
      Array.init (shards - 1) (fun i ->
          let shard = i + 1 in
          let lo, hi = spans.(shard) in
          Domain.spawn (fun () -> worker_loop shared ~shard ~lo ~hi))
    in
    { shards; spans; shared = Some shared; workers }
  end

let run t (job : job) =
  match t.shared with
  | None ->
      let lo, hi = t.spans.(0) in
      job ~shard:0 ~lo ~hi
  | Some shared ->
      Mutex.lock shared.m;
      shared.job <- job;
      shared.epoch <- shared.epoch + 1;
      shared.done_count <- 0;
      shared.failures <- [];
      Condition.broadcast shared.work;
      Mutex.unlock shared.m;
      let lo, hi = t.spans.(0) in
      let own_failure =
        match job ~shard:0 ~lo ~hi with () -> None | exception e -> Some e
      in
      Mutex.lock shared.m;
      while shared.done_count < t.shards - 1 do
        Condition.wait shared.finished shared.m
      done;
      let failures = shared.failures in
      shared.job <- no_job;
      Mutex.unlock shared.m;
      let failures =
        match own_failure with
        | None -> failures
        | Some e -> (0, e) :: failures
      in
      (* Re-raise the lowest failing shard's exception.  Not a sort:
         [List.sort] allocates its merge closures even on an empty
         list, and this runs once per barrier, so the no-failure path
         must stay allocation-free. *)
      (match failures with
      | [] -> ()
      | (s0, e0) :: rest ->
          let _, e =
            List.fold_left
              (fun ((sa, _) as a) ((sb, _) as b) -> if sb < sa then b else a)
              (s0, e0) rest
          in
          raise e)

let shutdown t =
  match t.shared with
  | None -> ()
  | Some shared ->
      Mutex.lock shared.m;
      shared.stopping <- true;
      Condition.broadcast shared.work;
      Mutex.unlock shared.m;
      Array.iter Domain.join t.workers

let with_pool ~spans f =
  let t = create ~spans in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

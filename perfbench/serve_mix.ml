(* serve-mix: a real `dynspread serve --workers 1` daemon driven from
   this process over two [Serve.Client] connections, each keeping two
   jobs in flight (a closed loop of four outstanding submits, so the
   admission queue and the round-robin over clients both work).

   One worker, not two: on a shared 2-vCPU machine a run that keeps both
   vCPUs busy with workers moved about twice as much with the host's
   load as one that leaves a vCPU to the daemon's event loop and this
   client.

   Submit [c] sends kind [(c + c / 4) mod 4] of the pool, at the kind's
   first seed for 16 submits, its second for the next 16, and so on
   over its eight seeds, so every spec takes its turn at being the
   [events] submit (every 4th).  Each report line must equal the
   in-process [Runner.run_repeat] line for the same spec and seed,
   computed before the daemon starts; a rejection, an error frame, a
   wrong line or a non-completed job counts as failed. *)

open Scenario

let workers = 1
let connections = 2
let in_flight = 2
let socket = "serve.sock"

type pool_entry = {
  json : Obs.Json.t;
  prepared : Runner.prepared;
  expected : string array;
}

let load_pool () =
  let ok = ref true in
  let pool =
    Array.init Workload.pool_size (fun i ->
        let file = Workload.pool_file i in
        let text = In_channel.with_open_bin file In_channel.input_all in
        let json =
          match Obs.Json.of_string text with
          | Ok j -> j
          | Error e -> failwith (file ^ ": " ^ e)
        in
        let spec =
          match Spec.of_json json with
          | Ok s -> s
          | Error errs -> failwith (file ^ ": " ^ String.concat "; " errs)
        in
        let prepared =
          match Runner.prepare spec with Ok p -> p | Error e -> failwith e
        in
        let expected =
          Array.map
            (fun seed ->
              let r = Runner.run_repeat prepared ~seed in
              if not (Batch.report_ok prepared r) then ok := false;
              Batch.encode r)
            prepared.seeds
        in
        { json; prepared; expected })
  in
  (pool, !ok)

(* {2 The daemon} *)

type daemon = { pid : int; port : int; ctl : Serve.Client.t }

(* A daemon still running when the benchmark exits is killed. *)
let live = ref None

let () =
  at_exit (fun () ->
      match !live with
      | None -> ()
      | Some pid -> (
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()))

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

let spawn cli ~port =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile "serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--socket"; socket; "--workers"; string_of_int workers;
        "--queue-cap"; "128"; "--metrics-port"; string_of_int port;
      |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live := Some pid;
  pid

let rec connect pid ~deadline =
  match Serve.Client.connect (Serve.Client.Unix_path socket) with
  | c -> c
  | exception Serve.Client.Io_error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
          live := None;
          failwith "serve daemon exited during start-up (see serve.log)");
      if Common.now () > deadline then failwith ("serve daemon: " ^ e);
      Unix.sleepf 0.0001;
      connect pid ~deadline

(* Spawn a daemon and return it with the seconds from spawn to the
   first pong. *)
let start_daemon cli =
  let port = free_port () in
  let t0 = Common.now () in
  let pid = spawn cli ~port in
  let ctl = connect pid ~deadline:(t0 +. 30.) in
  Serve.Client.ping ctl;
  ({ pid; port; ctl }, Common.now () -. t0)

(* Drain and stop; [true] when the daemon exits 0. *)
let stop d =
  Serve.Client.shutdown d.ctl;
  Serve.Client.close d.ctl;
  let _, status = Unix.waitpid [] d.pid in
  live := None;
  status = Unix.WEXITED 0

(* Sum of the workers' busy seconds from GET /metrics. *)
let busy_seconds d =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let text =
    Fun.protect
      ~finally:(fun () -> Unix.close s)
      (fun () ->
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, d.port));
        let req = "GET /metrics HTTP/1.0\r\n\r\n" in
        ignore (Unix.write_substring s req 0 (String.length req));
        let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
        let rec read () =
          match Unix.read s chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              read ()
        in
        read ();
        Buffer.contents buf)
  in
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ name; v ]
           when String.starts_with ~prefix:"dynspread_serve_domain" name
                && String.ends_with ~suffix:"_busy_seconds" name ->
             acc +. Option.value (float_of_string_opt v) ~default:0.
         | _ -> acc)
       0.

(* {2 A session: the closed loop over both connections} *)

type job = {
  c : int;
  kind : int;
  events : bool;
  t_submit : float;
  mutable t_accept : float;
  mutable t_event : float;
  mutable t_report : float;
  mutable t_done : float;
  mutable reports : int;
  mutable ok : bool;
}

type tally = {
  mutable finished : job list;  (** jobs that passed their check *)
  mutable attempted : int;
  mutable failed : int;
  mutable outstanding : int;
  mutable frames : int;
  mutable bytes : int;
  mutable rejected : int;
  mutable depths : float list;
}

let new_tally () =
  {
    finished = [];
    attempted = 0;
    failed = 0;
    outstanding = 0;
    frames = 0;
    bytes = 0;
    rejected = 0;
    depths = [];
  }

let drive pool ~next ~deadline ~count_bytes t client =
  let pending = Queue.create () and running = Hashtbl.create 8 in
  let submit () =
    let c = Atomic.fetch_and_add next 1 in
    let kind =
      ((c + (c / 4)) mod Workload.kinds)
      + (Workload.kinds * (c / 16 mod Workload.seeds_per_kind))
    in
    let events = c mod 4 = 3 in
    let j =
      {
        c; kind; events; t_submit = Common.now (); t_accept = 0.;
        t_event = 0.; t_report = 0.; t_done = 0.; reports = 0; ok = true;
      }
    in
    Serve.Client.send client
      (Serve.Rpc.Submit
         {
           tag = Some (string_of_int c);
           spec = pool.(kind).json;
           base_dir = None;
           engine = None;
           shards = None;
           events;
         });
    Queue.push j pending;
    t.attempted <- t.attempted + 1;
    t.outstanding <- t.outstanding + 1
  in
  let finish j ok =
    t.outstanding <- t.outstanding - 1;
    if ok then t.finished <- j :: t.finished else t.failed <- t.failed + 1;
    if Common.now () < deadline then submit ()
  in
  let running_job job =
    match Hashtbl.find_opt running job with
    | Some j -> j
    | None -> failwith (Printf.sprintf "frame for unknown job %d" job)
  in
  for _ = 1 to in_flight do
    submit ()
  done;
  while t.outstanding > 0 do
    let resp = Serve.Client.recv client in
    let now = Common.now () in
    t.frames <- t.frames + 1;
    if count_bytes then
      t.bytes <-
        t.bytes + String.length (Serve.Rpc.response_to_line resp) + 1;
    match resp with
    | Serve.Rpc.Accepted { job; tag; queue_depth } ->
        let j = Queue.pop pending in
        if tag <> Some (string_of_int j.c) then
          failwith "accepted: tag mismatch";
        j.t_accept <- now;
        Hashtbl.replace running job j;
        t.depths <- float_of_int queue_depth :: t.depths
    | Serve.Rpc.Rejected _ ->
        t.rejected <- t.rejected + 1;
        finish (Queue.pop pending) false
    | Serve.Rpc.Error _ -> finish (Queue.pop pending) false
    | Serve.Rpc.Event { job; _ } ->
        let j = running_job job in
        if j.t_event = 0. then j.t_event <- now
    | Serve.Rpc.Report { job; index; line } ->
        let j = running_job job in
        if j.t_report = 0. then j.t_report <- now;
        j.reports <- j.reports + 1;
        let expected = pool.(j.kind).expected in
        if
          index >= Array.length expected
          || not (String.equal line expected.(index))
        then j.ok <- false
    | Serve.Rpc.Done { job; outcome; reports; _ } ->
        let j = running_job job in
        Hashtbl.remove running job;
        j.t_done <- now;
        finish j
          (j.ok
          && String.equal outcome "completed"
          && reports = Array.length pool.(j.kind).expected
          && j.reports = reports)
    | _ -> failwith "unexpected frame"
  done

type session = { tallies : tally list; window : float; jobs : job list }

(* Run the closed loop for [seconds]: each connection stops submitting
   at the deadline and drains what it has in flight. *)
let session pool ~seconds ~count_bytes =
  let next = Atomic.make 0 in
  let start = Common.now () in
  let deadline = start +. seconds in
  let run () =
    let t = new_tally () in
    let client = Serve.Client.connect (Serve.Client.Unix_path socket) in
    let th =
      Thread.create
        (fun () ->
          try drive pool ~next ~deadline ~count_bytes t client
          with e ->
            prerr_endline
              ("serve-mix: connection failed: " ^ Printexc.to_string e);
            t.failed <- t.failed + t.outstanding;
            t.outstanding <- 0)
        ()
    in
    (t, client, th)
  in
  let conns = List.init connections (fun _ -> run ()) in
  List.iter (fun (_, _, th) -> Thread.join th) conns;
  List.iter (fun (_, client, _) -> Serve.Client.close client) conns;
  let tallies = List.map (fun (t, _, _) -> t) conns in
  let jobs = List.concat_map (fun t -> t.finished) tallies in
  let last = List.fold_left (fun a j -> Float.max a j.t_done) start jobs in
  { tallies; window = last -. start; jobs }

let sum f s = List.fold_left (fun a t -> a + f t) 0 s.tallies

let job_ms s = List.map (fun j -> (j.t_done -. j.t_submit) *. 1000.) s.jobs

let run_untraced ~cli ~seconds =
  let pool, pool_ok = load_pool () in
  (* Set-up takes milliseconds and swings by half between spawns, so it
     is timed over several daemons; the last one serves the run. *)
  let setups = 11 in
  let rec spawn_n i acc =
    let d, dt = start_daemon cli in
    if i = setups then (d, dt :: acc)
    else if stop d then spawn_n (i + 1) (dt :: acc)
    else failwith "serve daemon did not exit 0"
  in
  let d, setup = spawn_n 1 [] in
  let s = session pool ~seconds ~count_bytes:false in
  let rss = Common.vmhwm_mb ~pid:d.pid () in
  let clean_exit = stop d in
  let attempted = sum (fun t -> t.attempted) s in
  let failed =
    sum (fun t -> t.failed) s
    + (if pool_ok then 0 else 1)
    + if clean_exit then 0 else 1
  in
  let ms = job_ms s in
  let first_ms =
    List.map (fun j -> (j.t_report -. j.t_submit) *. 1000.) s.jobs
  in
  {
    Common.attempted;
    failed;
    metrics =
      [
        Common.metric "job_ms" "ms" (Common.median ms);
        Common.metric "jobs_per_s" "1/s"
          (float_of_int (List.length s.jobs) /. s.window);
        Common.metric "setup_s" "s" (Common.median setup);
        Common.metric "peak_rss_mb" "MB" rss;
      ];
    notes =
      [ Common.summary "job_ms" ms; Common.summary "first_report_ms" first_ms ];
  }

(* The traced run: a warm-up session, an untraced session (the base), a
   session that also counts every frame's bytes and reads the workers'
   busy time from /metrics, then the in-process layer breakdown of the
   pool specs with their event streams on. *)
let run_traced ~cli ~seconds =
  let samples = Common.Samples.create () in
  let add = Common.Samples.add samples in
  let pool, pool_ok = load_pool () in
  let start = Common.now () in
  let d, _ = start_daemon cli in
  for _ = 1 to 50 do
    let t0 = Common.now () in
    Serve.Client.ping d.ctl;
    add "serve.ping_ms" (Common.ms_since t0)
  done;
  (* A warm-up session first, so the base is not the daemon's warm-up;
     its jobs are checked but not timed. *)
  let warm = session pool ~seconds:(seconds *. 0.1) ~count_bytes:false in
  let base = session pool ~seconds:(seconds *. 0.3) ~count_bytes:false in
  List.iter (add "traced.base_job_ms") (job_ms base);
  let busy0 = busy_seconds d in
  let s = session pool ~seconds:(seconds *. 0.3) ~count_bytes:true in
  let busy = busy_seconds d -. busy0 in
  let clean_exit = stop d in
  List.iter (add "traced.job_ms") (job_ms s);
  List.iter
    (fun j ->
      add "serve.accept_ms" ((j.t_accept -. j.t_submit) *. 1000.);
      if j.events then
        add "serve.start_ms" ((j.t_event -. j.t_accept) *. 1000.))
    s.jobs;
  List.iter (fun t -> List.iter (add "serve.queue_depth") t.depths) s.tallies;
  let per_job x =
    float_of_int x /. float_of_int (max 1 (List.length s.jobs))
  in
  add "serve.busy_s" busy;
  add "serve.utilization" (busy /. (float_of_int workers *. s.window));
  add "serve.frames" (per_job (sum (fun t -> t.frames) s));
  add "serve.kb_in" (per_job (sum (fun t -> t.bytes) s) /. 1024.);
  let sessions = [ warm; base; s ] in
  let total f = List.fold_left (fun a x -> a + sum f x) 0 sessions in
  add "serve.rejected" (float_of_int (total (fun t -> t.rejected)));
  add "traced.overhead"
    (Common.Samples.median samples "traced.job_ms"
    /. Common.Samples.median samples "traced.base_job_ms");
  (* in-process layers: one pass over the pool per sample *)
  let attempted = ref 0 and failed = ref 0 in
  let passes = ref 0 in
  while !passes = 0 || Common.now () -. start < seconds do
    incr passes;
    let acc = Hashtbl.create 32 in
    Array.iter
      (fun e ->
        Array.iteri
          (fun i seed ->
            incr attempted;
            if
              not
                (Layers.measure_repeat ~events:true acc e.prepared ~seed
                   ~expected:e.expected.(i))
            then incr failed)
          e.prepared.seeds)
      pool;
    Layers.record samples acc
  done;
  add "scenario.prepare_ms"
    (1000.
    *. Common.median_call_s ~samples:5 ~min_sample_s:0.05 (fun () ->
           for i = 0 to Workload.pool_size - 1 do
             match Spec.load (Workload.pool_file i) with
             | Ok spec -> ignore (Sys.opaque_identity (Runner.prepare spec))
             | Error _ -> failwith "pool spec no longer loads"
           done));
  add "scenario.trace_kb" 0.;
  let all = job_ms s in
  let p90 = Common.percentile 0.9 all in
  let tail =
    List.filter (fun j -> (j.t_done -. j.t_submit) *. 1000. > p90) s.jobs
  in
  let events_tail = List.length (List.filter (fun j -> j.events) tail) in
  {
    Common.attempted = !attempted + total (fun t -> t.attempted);
    failed =
      !failed
      + total (fun t -> t.failed)
      + (if pool_ok then 0 else 1)
      + if clean_exit then 0 else 1;
    metrics = Layers.metrics samples;
    notes =
      [
        Printf.sprintf
          "slow tail: %d of the %d jobs above job_ms p90 (%.2f ms) were events \
           submits (1 submit in 4 sets events)"
          events_tail (List.length tail) p90;
      ];
  }

(* The serve daemon: a single-threaded [Unix.select] event loop
   fronting the {!Scheduler}'s Domain pool.

   Threading model.  The event loop owns every socket: it accepts,
   reads, frames, dispatches rpc requests, and writes.  Worker domains
   never touch a file descriptor — the scheduler's [notify] callback
   appends pre-serialized frames to per-session outboxes (each under
   its own small mutex) and tickles a self-pipe so a parked [select]
   wakes up and writes them out.  The sessions and subscription tables
   are guarded by one more mutex ([sub_m]) because [notify] reads them
   from worker domains.  Lock order: [sub_m] before a session's
   [out_m]; the scheduler's internal lock is never held while taking
   either (workers release it before notifying).

   Byte identity.  Reports enter a session outbox as the exact
   [Obs.Json.to_string] line the Runner produced — the scheduler
   serialized each exactly once — wrapped as a JSON string in the
   [Report] frame.  Clients print the carried string verbatim, so the
   daemon's output for a spec is byte-identical to
   [dynspread scenario run] on the same spec. *)

exception Startup_error of string

type config = {
  socket : string option;  (* unix-domain rpc listener *)
  listen : (string * int) option;  (* tcp rpc listener *)
  metrics : (string * int) option;  (* http/1.0 GET /metrics *)
  workers : int;
  queue_cap : int;
  stop : int Atomic.t;  (* signal handlers bump this *)
}

type session_kind = Rpc_session | Metrics_session

type session = {
  sid : int;
  fd : Unix.file_descr;
  kind : session_kind;
  splitter : Frame.splitter;
  out_m : Mutex.t;
  out : Buffer.t;  (* frames queued by the loop and by [notify] *)
  mutable pending : string;  (* bytes in flight to the wire *)
  mutable pos : int;
  mutable closing : bool;  (* close once the outbox drains *)
}

(* What a ready file descriptor means — select hands back bare fds, so
   the loop dispatches through one table instead of comparing
   descriptors (an abstract type) by hand. *)
type endpoint = Pipe | Listener of session_kind | Conn of session

type t = {
  sched : Scheduler.t;
  sub_m : Mutex.t;
  sessions : (int, session) Hashtbl.t;  (* sid -> session (under sub_m) *)
  subs : (int, (int * bool) list) Hashtbl.t;
      (* job -> (sid, events) subscribers (under sub_m) *)
  endpoints : (Unix.file_descr, endpoint) Hashtbl.t;  (* loop-only *)
  pipe_w : Unix.file_descr;
  mutable next_sid : int;
  mutable draining : bool;
  mutable drain_mode : [ `Drain | `Cancel ];
}

(* {2 Outboxes} *)

let wake t =
  (* A full pipe already means a wakeup is pending, so a failed write
     is success. *)
  let b = Bytes.make 1 'w' in
  match Unix.write t.pipe_w b 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()

let push t session line =
  Mutex.lock session.out_m;
  Buffer.add_string session.out line;
  Buffer.add_char session.out '\n';
  Mutex.unlock session.out_m;
  wake t

let reply t session resp = push t session (Rpc.response_to_line resp)

let has_output session =
  String.length session.pending > session.pos
  ||
  (Mutex.lock session.out_m;
   let n = Buffer.length session.out in
   Mutex.unlock session.out_m;
   n > 0)

(* {2 Subscriptions and worker notifications} *)

let forward t ~job ~events_only line =
  Mutex.lock t.sub_m;
  let targets =
    match Hashtbl.find_opt t.subs job with
    | None -> []
    | Some subs ->
        List.filter_map
          (fun (sid, ev) ->
            if events_only && not ev then None
            else Hashtbl.find_opt t.sessions sid)
          subs
  in
  Mutex.unlock t.sub_m;
  List.iter (fun s -> push t s line) targets

let notify t = function
  | Scheduler.Started _ -> ()
  | Scheduler.Event { job; line } ->
      forward t ~job ~events_only:true
        (Rpc.response_to_line (Rpc.Event { job; line }))
  | Scheduler.Report { job; index; line } ->
      forward t ~job ~events_only:false
        (Rpc.response_to_line (Rpc.Report { job; index; line }))
  | Scheduler.Finished { job; outcome; reports } ->
      let reason =
        match outcome with
        | Scheduler.Failed r -> Some r
        | Scheduler.Completed | Scheduler.Cancelled -> None
      in
      forward t ~job ~events_only:false
        (Rpc.response_to_line
           (Rpc.Done
              { job; outcome = Scheduler.outcome_name outcome; reports;
                reason }));
      Mutex.lock t.sub_m;
      Hashtbl.remove t.subs job;
      Mutex.unlock t.sub_m

(* {2 Request handling} *)

let handle_submit t session (sub : Rpc.submit) =
  if t.draining then
    let s = Scheduler.stats t.sched in
    reply t session
      (Rpc.Rejected
         {
           tag = sub.Rpc.tag;
           reason = "daemon is shutting down";
           queue_depth = s.Scheduler.queue_depth;
         })
  else
    match Scenario.Spec.of_json sub.Rpc.spec with
    | Result.Error errs ->
        reply t session
          (Rpc.Error { reason = "invalid spec: " ^ String.concat "; " errs })
    | Ok spec -> (
        match
          Scenario.Runner.engine_of_name
            (Option.value sub.Rpc.engine ~default:"soa")
            ~shards:(Option.value sub.Rpc.shards ~default:1)
        with
        | Result.Error reason -> reply t session (Rpc.Error { reason })
        | Ok engine -> (
            match Scenario.Runner.prepare ?base_dir:sub.Rpc.base_dir spec with
            | Result.Error reason -> reply t session (Rpc.Error { reason })
            | Ok prepared ->
                (* Register the submitter's subscription under [sub_m]
                   *around* the admission so a fast worker's first
                   notification cannot slip out before the subscriber
                   exists. *)
                Mutex.lock t.sub_m;
                let admission =
                  Scheduler.submit t.sched ~client:session.sid
                    ~name:spec.Scenario.Spec.name ~prepared ~engine
                    ~events:sub.Rpc.events ()
                in
                (match admission with
                | Scheduler.Admitted { job; _ } ->
                    Hashtbl.replace t.subs job [ (session.sid, sub.Rpc.events) ]
                | Scheduler.Refused _ -> ());
                Mutex.unlock t.sub_m;
                (match admission with
                | Scheduler.Admitted { job; queue_depth } ->
                    reply t session
                      (Rpc.Accepted { job; tag = sub.Rpc.tag; queue_depth })
                | Scheduler.Refused { reason; queue_depth } ->
                    reply t session
                      (Rpc.Rejected { tag = sub.Rpc.tag; reason; queue_depth }))
            ))

let handle_request t session (req : Rpc.request) =
  match req with
  | Rpc.Ping -> reply t session Rpc.Pong
  | Rpc.Shutdown ->
      t.draining <- true;
      reply t session Rpc.Shutting_down
  | Rpc.Status { job } ->
      let jobs, queue_depth, running = Scheduler.job_views t.sched ?job () in
      reply t session (Rpc.Status_view { jobs; queue_depth; running })
  | Rpc.Cancel { job } -> (
      match Scheduler.cancel t.sched job with
      | Some was -> reply t session (Rpc.Cancel_ok { job; was })
      | None ->
          reply t session
            (Rpc.Error { reason = Printf.sprintf "unknown job %d" job }))
  | Rpc.Subscribe { job; events } -> (
      match Scheduler.job_state t.sched job with
      | None ->
          reply t session
            (Rpc.Error { reason = Printf.sprintf "unknown job %d" job })
      | Some (state, reports) -> (
          Mutex.lock t.sub_m;
          let prev = Option.value (Hashtbl.find_opt t.subs job) ~default:[] in
          Hashtbl.replace t.subs job ((session.sid, events) :: prev);
          Mutex.unlock t.sub_m;
          reply t session (Rpc.Subscribed { job; events });
          (* A subscriber attaching after the fact would wait forever
             for a [Done] that already went out — replay the terminal
             frame (stream lines are live-only; the report count says
             what was missed). *)
          match state with
          | "completed" | "cancelled" | "failed" ->
              reply t session
                (Rpc.Done { job; outcome = state; reports; reason = None })
          | _ -> ()))
  | Rpc.Submit sub -> handle_submit t session sub

(* {2 The /metrics responder} *)

let metrics_registry t =
  let m = Obs.Metrics.create () in
  let s = Scheduler.stats t.sched in
  Obs.Metrics.set_gauge m "queue_depth" (float_of_int s.Scheduler.queue_depth);
  Obs.Metrics.set_gauge m "running_jobs"
    (float_of_int s.Scheduler.running_jobs);
  Obs.Metrics.set_gauge m "workers" (float_of_int s.Scheduler.workers);
  Obs.Metrics.incr m ~by:s.Scheduler.submitted "jobs_submitted";
  Obs.Metrics.incr m ~by:s.Scheduler.completed "jobs_completed";
  Obs.Metrics.incr m ~by:s.Scheduler.cancelled "jobs_cancelled";
  Obs.Metrics.incr m ~by:s.Scheduler.failed "jobs_failed";
  Obs.Metrics.incr m ~by:s.Scheduler.rejected "jobs_rejected";
  Array.iteri
    (fun i b ->
      Obs.Metrics.set_gauge m (Printf.sprintf "domain%d_busy_seconds" i) b)
    s.Scheduler.busy_seconds;
  m

let not_found =
  "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"

let handle_http_line t session line =
  (* "GET /metrics HTTP/1.0" — the one endpoint.  Whatever headers
     follow are irrelevant to an HTTP/1.0 close-delimited exchange. *)
  let response =
    match String.split_on_char ' ' line with
    | "GET" :: path :: _ when String.equal path "/metrics" ->
        Obs.Expo.http_response ~namespace:"dynspread_serve"
          (metrics_registry t)
    | _ -> not_found
  in
  Mutex.lock session.out_m;
  Buffer.add_string session.out response;
  Mutex.unlock session.out_m;
  session.closing <- true

(* {2 Sessions} *)

let add_session t fd kind =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let session =
    {
      sid;
      fd;
      kind;
      splitter = Frame.splitter ();
      out_m = Mutex.create ();
      out = Buffer.create 256;
      pending = "";
      pos = 0;
      closing = false;
    }
  in
  Mutex.lock t.sub_m;
  Hashtbl.replace t.sessions sid session;
  Mutex.unlock t.sub_m;
  Hashtbl.replace t.endpoints fd (Conn session)

let close_session t session =
  Mutex.lock t.sub_m;
  Hashtbl.remove t.sessions session.sid;
  Mutex.unlock t.sub_m;
  Hashtbl.remove t.endpoints session.fd;
  match Unix.close session.fd with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

let handle_readable t session buf =
  match Unix.read session.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_session t session
  | 0 -> close_session t session
  | n -> (
      let chunk = Bytes.sub_string buf 0 n in
      match Frame.feed session.splitter chunk with
      | Result.Error reason ->
          (match session.kind with
          | Rpc_session -> reply t session (Rpc.Error { reason })
          | Metrics_session -> ());
          session.closing <- true
      | Ok lines -> (
          match session.kind with
          | Metrics_session -> (
              match lines with
              | [] -> ()
              | line :: _ ->
                  if not session.closing then handle_http_line t session line)
          | Rpc_session ->
              List.iter
                (fun line ->
                  match Rpc.request_of_line line with
                  | Result.Error reason ->
                      reply t session (Rpc.Error { reason })
                  | Ok req -> handle_request t session req)
                lines))

let handle_writable t session =
  if session.pos >= String.length session.pending then begin
    Mutex.lock session.out_m;
    session.pending <- Buffer.contents session.out;
    Buffer.clear session.out;
    session.pos <- 0;
    Mutex.unlock session.out_m
  end;
  let len = String.length session.pending - session.pos in
  if len > 0 then
    match Unix.write_substring session.fd session.pending session.pos len with
    | written -> session.pos <- session.pos + written
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_session t session

(* {2 Listeners} *)

let bind_unix path =
  if Sys.file_exists path then begin
    (* Stale-socket etiquette: probe it.  A live daemon answers the
       connect — refuse to fight it; a dead one left ECONNREFUSED
       behind — reclaim the path. *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
        Unix.close probe;
        raise
          (Startup_error
             (Printf.sprintf "%s: a daemon is already listening" path))
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> (
        Unix.close probe;
        match Unix.unlink path with
        | () -> ()
        | exception Unix.Unix_error _ ->
            raise
              (Startup_error
                 (Printf.sprintf "%s: cannot remove stale socket" path)))
    | exception Unix.Unix_error _ ->
        Unix.close probe;
        raise
          (Startup_error
             (Printf.sprintf "%s: exists and is not a listening socket" path))
  end;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      raise
        (Startup_error
           (Printf.sprintf "%s: bind failed (%s)" path (Unix.error_message e)))
  );
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let inet_addr host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          raise (Startup_error ("cannot resolve " ^ host))
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found -> raise (Startup_error ("cannot resolve " ^ host))
      )

let bind_tcp (host, port) =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (match Unix.bind fd (Unix.ADDR_INET (inet_addr host, port)) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      raise
        (Startup_error
           (Printf.sprintf "%s:%d: bind failed (%s)" host port
              (Unix.error_message e))));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let rec accept_all t fd kind =
  match Unix.accept ~cloexec:true fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> ()
  | cfd, _ ->
      Unix.set_nonblock cfd;
      add_session t cfd kind;
      accept_all t fd kind

(* {2 The loop} *)

let conns_snapshot t =
  Hashtbl.fold
    (fun _ ep acc ->
      match ep with Conn s -> s :: acc | Pipe | Listener _ -> acc)
    t.endpoints []

let drain_pipe fd buf =
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | 0 -> ()
    | _ -> go ()
  in
  go ()

(* Push out whatever the outboxes still hold — the terminal [Done]
   frames of a cancel-mode teardown — without waiting on slow peers
   past [deadline] seconds. *)
let final_flush t ~deadline =
  let until = Obs.Span.now_s () +. deadline in
  let rec go () =
    let waiting = List.filter has_output (conns_snapshot t) in
    match waiting with
    | [] -> ()
    | _ when Obs.Span.now_s () >= until -> ()
    | _ ->
        (match Unix.select [] (List.map (fun s -> s.fd) waiting) [] 0.1 with
        | _, writable, _ ->
            List.iter
              (fun fd ->
                match Hashtbl.find_opt t.endpoints fd with
                | Some (Conn s) -> handle_writable t s
                | Some Pipe | Some (Listener _) | None -> ())
              writable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
  in
  go ()

let run config =
  let sub_m = Mutex.create () in
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  (* [notify] runs on worker domains and needs the server record; the
     scheduler needs [notify] at creation.  Tie the knot through an
     Atomic the workers read — it is written before any job can be
     submitted, hence before any notification. *)
  let tie = Atomic.make None in
  let notify_cb n =
    match Atomic.get tie with Some t -> notify t n | None -> ()
  in
  let sched =
    Scheduler.create ~workers:config.workers ~queue_cap:config.queue_cap
      ~notify:notify_cb ()
  in
  let t =
    {
      sched;
      sub_m;
      sessions = Hashtbl.create 64;
      subs = Hashtbl.create 64;
      endpoints = Hashtbl.create 64;
      pipe_w;
      next_sid = 1;
      draining = false;
      drain_mode = `Drain;
    }
  in
  Atomic.set tie (Some t);
  Hashtbl.replace t.endpoints pipe_r Pipe;
  let unix_path = config.socket in
  let listeners = ref [] in
  (match unix_path with
  | Some path ->
      let fd = bind_unix path in
      Hashtbl.replace t.endpoints fd (Listener Rpc_session);
      listeners := fd :: !listeners
  | None -> ());
  (match config.listen with
  | Some hp ->
      let fd = bind_tcp hp in
      Hashtbl.replace t.endpoints fd (Listener Rpc_session);
      listeners := fd :: !listeners
  | None -> ());
  (match config.metrics with
  | Some hp ->
      let fd = bind_tcp hp in
      Hashtbl.replace t.endpoints fd (Listener Metrics_session);
      listeners := fd :: !listeners
  | None -> ());
  (match (unix_path, config.listen) with
  | None, None ->
      List.iter Unix.close !listeners;
      raise (Startup_error "serve needs a unix socket path or --listen")
  | Some _, _ | _, Some _ -> ());
  let buf = Bytes.create 4096 in
  let cleanup () =
    List.iter (fun s -> close_session t s) (conns_snapshot t);
    List.iter
      (fun fd ->
        Hashtbl.remove t.endpoints fd;
        match Unix.close fd with
        | () -> ()
        | exception Unix.Unix_error _ -> ())
      !listeners;
    (match unix_path with
    | Some path -> (
        match Unix.unlink path with
        | () -> ()
        | exception Unix.Unix_error _ -> ())
    | None -> ());
    Unix.close pipe_r;
    Unix.close pipe_w
  in
  let rec loop () =
    if Atomic.get config.stop > 0 then begin
      t.draining <- true;
      t.drain_mode <- `Cancel
    end;
    let finish_now =
      t.draining
      &&
      match t.drain_mode with
      | `Cancel -> true
      | `Drain -> Scheduler.idle t.sched
    in
    if finish_now then begin
      (* Cancel mode flags every live job and joins the workers — the
         engines notice at the next round boundary, the terminal
         frames land in the outboxes, and the flush below delivers
         them. *)
      Scheduler.shutdown ~mode:t.drain_mode t.sched;
      final_flush t ~deadline:2.0;
      cleanup ();
      match t.drain_mode with `Cancel -> `Signalled | `Drain -> `Completed
    end
    else begin
      let conns = conns_snapshot t in
      let reads =
        (pipe_r :: !listeners)
        @ List.filter_map
            (fun s -> if s.closing then None else Some s.fd)
            conns
      in
      let writes =
        List.filter_map
          (fun s -> if has_output s then Some s.fd else None)
          conns
      in
      (match Unix.select reads writes [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.endpoints fd with
              | Some Pipe -> drain_pipe fd buf
              | Some (Listener kind) -> accept_all t fd kind
              | Some (Conn s) -> handle_readable t s buf
              | None -> ())
            readable;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.endpoints fd with
              | Some (Conn s) -> handle_writable t s
              | Some Pipe | Some (Listener _) | None -> ())
            writable;
          (* Retire sessions whose goodbyes have drained. *)
          List.iter
            (fun s ->
              if
                s.closing
                && (not (has_output s))
                && Hashtbl.mem t.sessions s.sid
              then close_session t s)
            (conns_snapshot t));
      loop ()
    end
  in
  loop ()

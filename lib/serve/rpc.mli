(** [dynspread-rpc/v1] frame types and codecs.

    Every frame (either direction) is one NDJSON line: a JSON object
    with ["rpc"] (the {!version} string) and ["op"] (the frame kind).
    Frames with a missing or unknown version or op decode to [Error]
    so the peer can answer with a protocol error instead of guessing.

    Run reports and trace events cross the wire {e pre-serialized}:
    the ["line"] field of [Report]/[Event] is the exact NDJSON line
    the daemon produced with [Obs.Json.to_string].  Clients print it
    verbatim, which is what makes daemon reports byte-identical to
    [dynspread scenario run] output — no re-encode, no float drift. *)

val version : string
(** ["dynspread-rpc/v1"]. *)

type submit = {
  tag : string option;
      (** Client correlation label, echoed on [Accepted]/[Rejected]. *)
  spec : Obs.Json.t;
      (** The dynspread-scenario/v1 object, passed through unparsed —
          the daemon validates it with [Scenario.Spec.of_json]. *)
  base_dir : string option;
      (** Directory the spec's relative trace paths resolve against
          (the daemon's working directory when omitted). *)
  engine : string option;
      (** ["soa"] (the default when omitted), ["fastpath"] (a name for
          ["soa"] at one shard) or ["reference"]. *)
  shards : int option;  (** SoA shard count (engine ["soa"] only). *)
  events : bool;
      (** Stream the run's dynspread-trace/v1 events as [Event]
          frames. *)
}

type request =
  | Submit of submit
  | Status of { job : int option }  (** One job, or the whole table. *)
  | Cancel of { job : int }
  | Subscribe of { job : int; events : bool }
      (** Attach this session to a job's [Report]/[Done] (and with
          [events], [Event]) stream from now on. *)
  | Shutdown  (** Graceful: drain, then exit. *)
  | Ping

type job_view = {
  job : int;
  name : string;  (** The spec's [name]. *)
  state : string;
      (** ["queued"] | ["running"] | ["completed"] | ["cancelled"] |
          ["failed"]. *)
  reports : int;  (** Reports streamed so far. *)
}

type response =
  | Accepted of { job : int; tag : string option; queue_depth : int }
  | Rejected of { tag : string option; reason : string; queue_depth : int }
      (** Backpressure: the bounded queue is full (or the daemon is
          draining).  The spec was not enqueued; resubmit later. *)
  | Error of { reason : string }
      (** Protocol-level failure: malformed frame, unknown op, invalid
          spec, unknown job. *)
  | Status_view of { jobs : job_view list; queue_depth : int; running : int }
  | Cancel_ok of { job : int; was : string }
      (** [was] is the state the job was found in; cancelling an
          already-finished job is a no-op and reports that state. *)
  | Subscribed of { job : int; events : bool }
  | Event of { job : int; line : string }
      (** One dynspread-trace/v1 event line, pre-serialized. *)
  | Report of { job : int; index : int; line : string }
      (** Repeat [index]'s dynspread-report/v1 line, pre-serialized. *)
  | Done of { job : int; outcome : string; reports : int;
              reason : string option }
      (** Terminal: [outcome] is ["completed"] | ["cancelled"] |
          ["failed"] ([reason] only for failures). *)
  | Shutting_down
  | Pong

val request_to_json : request -> Obs.Json.t
val request_to_line : request -> string
val request_of_line : string -> (request, string) result

val response_to_json : response -> Obs.Json.t
val response_to_line : response -> string
val response_of_line : string -> (response, string) result

(* dynspread-rpc/v1: the NDJSON wire protocol between `dynspread
   submit` (and any other client) and the serve daemon.  Every frame
   in either direction is one JSON object carrying ["rpc"] (the
   version string) and ["op"] (the frame kind); unknown versions and
   ops are rejected with an [Error] frame rather than guessed at.

   Reports and trace events cross the wire as *pre-serialized* JSON
   lines (the ["line"] field, a JSON string): the daemon serializes
   each report exactly once with [Obs.Json.to_string] and the client
   prints the carried string verbatim, so daemon output is
   byte-identical to `dynspread scenario run` by construction — float
   formatting never gets a second chance to drift. *)

let version = "dynspread-rpc/v1"

type submit = {
  tag : string option;  (* client-chosen correlation label *)
  spec : Obs.Json.t;  (* dynspread-scenario/v1 object, unparsed *)
  base_dir : string option;  (* trace paths resolve against this *)
  engine : string option;  (* "soa" | "fastpath" (= soa-1) | "reference" *)
  shards : int option;  (* soa shard count *)
  events : bool;  (* stream dynspread-trace/v1 events *)
}

type request =
  | Submit of submit
  | Status of { job : int option }
  | Cancel of { job : int }
  | Subscribe of { job : int; events : bool }
  | Shutdown
  | Ping

type job_view = {
  job : int;
  name : string;
  state : string;  (* "queued" | "running" | "completed" | ... *)
  reports : int;  (* reports streamed so far *)
}

type response =
  | Accepted of { job : int; tag : string option; queue_depth : int }
  | Rejected of { tag : string option; reason : string; queue_depth : int }
  | Error of { reason : string }
  | Status_view of { jobs : job_view list; queue_depth : int; running : int }
  | Cancel_ok of { job : int; was : string }
  | Subscribed of { job : int; events : bool }
  | Event of { job : int; line : string }
  | Report of { job : int; index : int; line : string }
  | Done of { job : int; outcome : string; reports : int;
              reason : string option }
  | Shutting_down
  | Pong

(* {2 Field plumbing} *)

let str_field j name =
  match Obs.Json.member name j with
  | Some (Obs.Json.String s) -> Some s
  | Some _ | None -> None

let int_field j name =
  match Obs.Json.member name j with
  | Some v -> Obs.Json.to_int v
  | None -> None

let bool_field j name =
  match Obs.Json.member name j with
  | Some (Obs.Json.Bool b) -> Some b
  | Some _ | None -> None

let frame op fields =
  Obs.Json.Obj
    (("rpc", Obs.Json.String version) :: ("op", Obs.Json.String op) :: fields)

let opt_str name = function
  | None -> []
  | Some s -> [ (name, Obs.Json.String s) ]

let opt_int name = function
  | None -> []
  | Some i -> [ (name, Obs.Json.Int i) ]

(* {2 Requests} *)

let request_to_json = function
  | Submit { tag; spec; base_dir; engine; shards; events } ->
      frame "submit"
        (opt_str "tag" tag
        @ [ ("spec", spec) ]
        @ opt_str "base_dir" base_dir
        @ opt_str "engine" engine
        @ opt_int "shards" shards
        @ if events then [ ("events", Obs.Json.Bool true) ] else [])
  | Status { job } -> frame "status" (opt_int "job" job)
  | Cancel { job } -> frame "cancel" [ ("job", Obs.Json.Int job) ]
  | Subscribe { job; events } ->
      frame "subscribe"
        (("job", Obs.Json.Int job)
        :: (if events then [ ("events", Obs.Json.Bool true) ] else []))
  | Shutdown -> frame "shutdown" []
  | Ping -> frame "ping" []

let request_to_line r = Obs.Json.to_string (request_to_json r)

let checked_frame line k =
  match Obs.Json.of_string line with
  | Error e -> Result.Error ("malformed frame: " ^ e)
  | Ok j -> (
      match str_field j "rpc" with
      | Some v when String.equal v version -> (
          match str_field j "op" with
          | Some op -> k j op
          | None -> Result.Error "frame has no \"op\"")
      | Some v -> Result.Error ("unsupported rpc version " ^ v)
      | None -> Result.Error "frame has no \"rpc\" version")

let request_of_line line =
  checked_frame line @@ fun j -> function
  | "submit" -> (
      match Obs.Json.member "spec" j with
      | Some (Obs.Json.Obj _ as spec) ->
          Ok
            (Submit
               {
                 tag = str_field j "tag";
                 spec;
                 base_dir = str_field j "base_dir";
                 engine = str_field j "engine";
                 shards = int_field j "shards";
                 events = Option.value (bool_field j "events") ~default:false;
               })
      | Some _ -> Result.Error "submit: \"spec\" must be an object"
      | None -> Result.Error "submit: missing \"spec\"")
  | "status" -> Ok (Status { job = int_field j "job" })
  | "cancel" -> (
      match int_field j "job" with
      | Some job -> Ok (Cancel { job })
      | None -> Result.Error "cancel: missing integer \"job\"")
  | "subscribe" -> (
      match int_field j "job" with
      | Some job ->
          Ok
            (Subscribe
               {
                 job;
                 events = Option.value (bool_field j "events") ~default:false;
               })
      | None -> Result.Error "subscribe: missing integer \"job\"")
  | "shutdown" -> Ok Shutdown
  | "ping" -> Ok Ping
  | op -> Result.Error ("unknown op \"" ^ op ^ "\"")

(* {2 Responses} *)

let job_view_to_json { job; name; state; reports } =
  Obs.Json.Obj
    [
      ("job", Obs.Json.Int job);
      ("name", Obs.Json.String name);
      ("state", Obs.Json.String state);
      ("reports", Obs.Json.Int reports);
    ]

let response_to_json = function
  | Accepted { job; tag; queue_depth } ->
      frame "accepted"
        (("job", Obs.Json.Int job)
        :: (opt_str "tag" tag @ [ ("queue_depth", Obs.Json.Int queue_depth) ]))
  | Rejected { tag; reason; queue_depth } ->
      frame "rejected"
        (opt_str "tag" tag
        @ [
            ("reason", Obs.Json.String reason);
            ("queue_depth", Obs.Json.Int queue_depth);
          ])
  | Error { reason } -> frame "error" [ ("reason", Obs.Json.String reason) ]
  | Status_view { jobs; queue_depth; running } ->
      frame "status"
        [
          ("jobs", Obs.Json.List (List.map job_view_to_json jobs));
          ("queue_depth", Obs.Json.Int queue_depth);
          ("running", Obs.Json.Int running);
        ]
  | Cancel_ok { job; was } ->
      frame "cancel-ok"
        [ ("job", Obs.Json.Int job); ("was", Obs.Json.String was) ]
  | Subscribed { job; events } ->
      frame "subscribed"
        [ ("job", Obs.Json.Int job); ("events", Obs.Json.Bool events) ]
  | Event { job; line } ->
      frame "event"
        [ ("job", Obs.Json.Int job); ("line", Obs.Json.String line) ]
  | Report { job; index; line } ->
      frame "report"
        [
          ("job", Obs.Json.Int job);
          ("index", Obs.Json.Int index);
          ("line", Obs.Json.String line);
        ]
  | Done { job; outcome; reports; reason } ->
      frame "done"
        ([
           ("job", Obs.Json.Int job);
           ("outcome", Obs.Json.String outcome);
           ("reports", Obs.Json.Int reports);
         ]
        @ opt_str "reason" reason)
  | Shutting_down -> frame "shutting-down" []
  | Pong -> frame "pong" []

let response_to_line r = Obs.Json.to_string (response_to_json r)

let req_int j name k =
  match int_field j name with
  | Some v -> k v
  | None ->
      Result.Error
        (Printf.sprintf "frame missing integer \"%s\"" name)

let req_str j name k =
  match str_field j name with
  | Some v -> k v
  | None ->
      Result.Error (Printf.sprintf "frame missing string \"%s\"" name)

let response_of_line line =
  checked_frame line @@ fun j -> function
  | "accepted" ->
      req_int j "job" @@ fun job ->
      req_int j "queue_depth" @@ fun queue_depth ->
      Ok (Accepted { job; tag = str_field j "tag"; queue_depth })
  | "rejected" ->
      req_str j "reason" @@ fun reason ->
      req_int j "queue_depth" @@ fun queue_depth ->
      Ok (Rejected { tag = str_field j "tag"; reason; queue_depth })
  | "error" -> req_str j "reason" @@ fun reason -> Ok (Error { reason })
  | "status" ->
      let jobs =
        match Obs.Json.member "jobs" j with
        | Some (Obs.Json.List l) ->
            List.filter_map
              (fun v ->
                match
                  ( int_field v "job",
                    str_field v "name",
                    str_field v "state",
                    int_field v "reports" )
                with
                | Some job, Some name, Some state, Some reports ->
                    Some { job; name; state; reports }
                | _ -> None)
              l
        | Some _ | None -> []
      in
      req_int j "queue_depth" @@ fun queue_depth ->
      req_int j "running" @@ fun running ->
      Ok (Status_view { jobs; queue_depth; running })
  | "cancel-ok" ->
      req_int j "job" @@ fun job ->
      req_str j "was" @@ fun was -> Ok (Cancel_ok { job; was })
  | "subscribed" ->
      req_int j "job" @@ fun job ->
      Ok
        (Subscribed
           { job; events = Option.value (bool_field j "events") ~default:false })
  | "event" ->
      req_int j "job" @@ fun job ->
      req_str j "line" @@ fun line -> Ok (Event { job; line })
  | "report" ->
      req_int j "job" @@ fun job ->
      req_int j "index" @@ fun index ->
      req_str j "line" @@ fun line -> Ok (Report { job; index; line })
  | "done" ->
      req_int j "job" @@ fun job ->
      req_str j "outcome" @@ fun outcome ->
      req_int j "reports" @@ fun reports ->
      Ok (Done { job; outcome; reports; reason = str_field j "reason" })
  | "shutting-down" -> Ok Shutting_down
  | "pong" -> Ok Pong
  | op -> Result.Error ("unknown op \"" ^ op ^ "\"")

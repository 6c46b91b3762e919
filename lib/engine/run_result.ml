type outcome =
  | Completed
  | Partial of { achieved : int; target : int option }
  | Stalled of { rounds_without_progress : int }
  | Cancelled of { achieved : int; target : int option }
  | Aborted of string

type t = {
  rounds : int;
  completed : bool;
  outcome : outcome;
  ledger : Ledger.t;
  fault_counts : Faults.Counts.t option;
  timeline : (int * int * int) list;
}

let coverage = function
  | Completed -> Some 1.
  | Partial { achieved; target = Some target }
  | Cancelled { achieved; target = Some target }
    when target > 0 ->
      Some (Float.min 1. (float_of_int achieved /. float_of_int target))
  | Partial _ | Cancelled _ | Stalled _ | Aborted _ -> None

let make ?outcome ?fault_counts ~rounds ~completed ~ledger ~timeline () =
  let outcome =
    match outcome with
    | Some o -> o
    | None ->
        if completed then Completed
        else Partial { achieved = Ledger.learnings ledger; target = None }
  in
  { rounds; completed; outcome; ledger; fault_counts; timeline }

let messages t = Ledger.total t.ledger

let outcome_fields t =
  let tag =
    match t.outcome with
    | Completed -> "completed"
    | Partial _ -> "partial"
    | Stalled _ -> "stalled"
    | Cancelled _ -> "cancelled"
    | Aborted _ -> "aborted"
  in
  let base = [ ("outcome", Obs.Json.String tag) ] in
  let detail =
    match t.outcome with
    | Completed -> []
    | Partial { achieved; target } | Cancelled { achieved; target } ->
        [ ("achieved", Obs.Json.Int achieved) ]
        @ (match target with
          | None -> []
          | Some tgt -> [ ("target", Obs.Json.Int tgt) ])
        @ (match coverage t.outcome with
          | None -> []
          | Some c -> [ ("coverage", Obs.Json.Float c) ])
    | Stalled { rounds_without_progress } ->
        [ ("stalled_for", Obs.Json.Int rounds_without_progress) ]
    | Aborted reason -> [ ("abort_reason", Obs.Json.String reason) ]
  in
  let faults =
    match t.fault_counts with
    | None -> []
    | Some c ->
        [
          ( "faults",
            Obs.Json.Obj
              (List.map
                 (fun (name, v) -> (name, Obs.Json.Int v))
                 (Faults.Counts.to_fields c)) );
        ]
  in
  base @ detail @ faults

let to_report ?(name = "run") ?(extra = []) t =
  Obs.Report.make ~name ~completed:t.completed ~rounds:t.rounds
    ~messages:(Ledger.total t.ledger)
    ~class_counts:
      (List.map
         (fun cls -> (Msg_class.to_string cls, Ledger.count t.ledger cls))
         Msg_class.all)
    ~tc:(Ledger.tc t.ledger) ~removals:(Ledger.removals t.ledger)
    ~learnings:(Ledger.learnings t.ledger) ~alpha:1.
    ~competitive_cost:(Ledger.competitive_cost t.ledger ~alpha:1.)
    ~max_load:(Ledger.max_load t.ledger)
    ~mean_load:(Ledger.mean_load t.ledger)
    ?load_summary:
      (Obs.Metrics.summarize (List.map float_of_int (Ledger.load_list t.ledger)))
    ~timeline:t.timeline
    ~extra:(outcome_fields t @ extra)
    ()

let pp ppf t =
  let status =
    match t.outcome with
    | Completed -> "completed"
    | Aborted reason -> "ABORTED (" ^ reason ^ ")"
    | Partial { achieved; target = Some target } when target > 0 ->
        Printf.sprintf "PARTIAL %d/%d (%.0f%% coverage)" achieved target
          (100. *. float_of_int achieved /. float_of_int target)
    | Partial _ -> "HIT ROUND CAP"
    | Cancelled { achieved; target = Some target } when target > 0 ->
        Printf.sprintf "CANCELLED %d/%d (%.0f%% coverage)" achieved target
          (100. *. float_of_int achieved /. float_of_int target)
    | Cancelled _ -> "CANCELLED"
    | Stalled { rounds_without_progress } ->
        Printf.sprintf "STALLED (no progress for %d rounds)"
          rounds_without_progress
  in
  Format.fprintf ppf "@[<v>%s after %d rounds@ %a@]" status t.rounds Ledger.pp
    t.ledger;
  match t.fault_counts with
  | None -> ()
  | Some c -> Format.fprintf ppf "@ faults: %a" Faults.Counts.pp c

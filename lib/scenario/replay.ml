open Dynet.Ops

type past_end = Hold | Loop | Fail

let schedule ?(past_end = Hold) (trace : Trace_io.t) =
  let r_max = Trace_io.rounds trace in
  if r_max = 0 then invalid_arg "Replay.schedule: trace has zero rounds";
  let n = trace.Trace_io.header.Trace_io.n in
  (* The schedule's Markov rule builds round r from round r - 1's graph
     and delta r: a merge walk over the previous graph's sorted keys
     (Trace_io.next_graph, the step validation replays too), so no
     round materialises an edge set.  An empty delta hands back the
     previous graph itself.  The base cycle is kept so Loop can wrap
     without replaying (Schedule memoizes every produced graph
     anyway). *)
  let cycle = Array.make r_max None in
  let build r prev =
    let g = Trace_io.next_graph ~round:r prev trace.Trace_io.deltas.(r - 1) in
    cycle.(r - 1) <- Some g;
    g
  in
  let get_cycle r =
    match cycle.(r - 1) with
    | Some g -> g
    | None ->
        (* Unreachable through Schedule (rounds are produced in order),
           kept total for safety. *)
        invalid_arg (Printf.sprintf "Replay: round %d not yet built" r)
  in
  Adversary.Schedule.iterate ~n
    ~init:(fun () -> build 1 (Dynet.Graph.empty ~n))
    (fun r prev ->
      if r <= r_max then build r prev
      else
        match past_end with
        | Hold -> prev
        | Loop -> get_cycle (((r - 1) mod r_max) + 1)
        | Fail ->
            raise
              (Engine.Engine_error.Schedule_exhausted
                 { round = r; available = r_max }))

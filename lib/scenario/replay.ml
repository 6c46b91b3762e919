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
     previous graph itself.  Loop keeps no copy of the cycle: round
     r > r_max re-steps base round c = ((r - 1) mod r_max) + 1 from the
     previous graph, which is base round c - 1, and starts again from
     the empty graph at each wrap (c = 1). *)
  let step c prev =
    Trace_io.next_graph ~round:c prev trace.Trace_io.deltas.(c - 1)
  in
  Adversary.Schedule.iterate ~n
    ~init:(fun () -> step 1 (Dynet.Graph.empty ~n))
    (fun r prev ->
      if r <= r_max then step r prev
      else
        match past_end with
        | Hold -> prev
        | Loop ->
            let c = ((r - 1) mod r_max) + 1 in
            step c (if c = 1 then Dynet.Graph.empty ~n else prev)
        | Fail ->
            raise
              (Engine.Engine_error.Schedule_exhausted
                 { round = r; available = r_max }))

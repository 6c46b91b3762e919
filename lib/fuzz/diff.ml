open! Dynet.Ops

(* What the differential harness needs from a flooding implementation.
   The real protocol satisfies it ([real_flooding]); [Mutant] provides
   deliberately broken copies for the harness's own smoke test.  The
   single-source and multi-source protocols need no such seam — they
   run through the engine-parametric {!Gossip.Runners}. *)
module type FLOODING = sig
  type state

  val protocol :
    (module Engine.Runner_broadcast.PROTOCOL
       with type state = state
        and type msg = Gossip.Payload.t)

  val init : instance:Gossip.Instance.t -> state array
  val all_complete : k:int -> state array -> bool
end

module Real_flooding = struct
  type state = Gossip.Flooding.state

  let protocol = Gossip.Flooding.protocol
  let init ~instance = Gossip.Flooding.init ~instance ()
  let all_complete = Gossip.Flooding.all_complete
end

let real_flooding = (module Real_flooding : FLOODING)

type exec = {
  engine : string;
  report : string;
  realized : string;
  error : string option;
}

(* Only the engines' own typed failures are caught: a crash of any
   other kind (Invalid_argument, Stack_overflow, …) is a harness or
   generator bug and must propagate, not be folded into a "both sides
   failed identically" pass. *)
let run_caught ~engine_name ~name ~realized f =
  match f () with
  | result ->
      let report =
        Obs.Json.to_string
          (Obs.Report.to_json (Engine.Run_result.to_report ~name result))
      in
      { engine = engine_name; report; realized = realized (); error = None }
  | exception Engine.Engine_error.Protocol_violation m ->
      {
        engine = engine_name;
        report = "";
        realized = realized ();
        error = Some ("protocol-violation: " ^ m);
      }
  | exception Engine.Engine_error.Adversary_violation m ->
      {
        engine = engine_name;
        report = "";
        realized = realized ();
        error = Some ("adversary-violation: " ^ m);
      }
  | exception Check.Check_failed m ->
      {
        engine = engine_name;
        report = "";
        realized = realized ();
        error = Some ("check-failed: " ^ m);
      }

let execute ~engine ?(flooding = real_flooding) ?prof (case : Case.t) =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = case.Case.n and k = case.Case.k in
  let instance = Case.instance case in
  let faults = Case.fault_plan case in
  let schedule =
    Scenario.Replay.schedule ~past_end:Scenario.Replay.Loop (Case.to_trace case)
  in
  let recorder = Scenario.Record.create ~n () in
  let on_graph = Scenario.Record.hook recorder in
  let stall_after = Case.stall_after case in
  let realized () =
    Scenario.Trace_io.to_string (Scenario.Record.to_trace recorder)
  in
  run_caught ~engine_name:E.name ~name:(Case.label case) ~realized (fun () ->
      match case.Case.algo with
      | Case.Flooding ->
          (* Direct engine call rather than [Runners.flooding], so the
             real protocol and a mutant share every line of wiring —
             a mutant-only divergence can only come from the protocol
             copy itself. *)
          let (module F : FLOODING) = flooding in
          let max_rounds =
            Option.value case.Case.max_rounds
              ~default:(Gossip.Runners.default_broadcast_cap ~n ~k)
          in
          let result, _ =
            E.Broadcast.run F.protocol
              ~ctx:(Engine.Ctx.make ~faults ?prof ~on_graph ~stall_after ())
              ~target_progress:(n * k)
              ~states:(F.init ~instance)
              ~adversary:(Adversary.Schedule.broadcast schedule)
              ~max_rounds
              ~stop:(F.all_complete ~k)
              ()
          in
          result
      | Case.Single_source ->
          let result, _ =
            Gossip.Runners.single_source ~instance
              ~env:(Gossip.Runners.Oblivious schedule) ~engine
              ?max_rounds:case.Case.max_rounds ~stall_after ~faults ?prof
              ~on_graph ()
          in
          result
      | Case.Multi_source ->
          let result, _ =
            Gossip.Runners.multi_source ~instance
              ~env:(Gossip.Runners.Oblivious schedule) ~engine
              ?max_rounds:case.Case.max_rounds ~stall_after ~faults ?prof
              ~on_graph ()
          in
          result)

let divergence a b =
  match (a.error, b.error) with
  | Some ea, Some eb when not (String.equal ea eb) ->
      Some
        (Printf.sprintf "%s failed with %s; %s failed with %s" a.engine ea
           b.engine eb)
  | Some e, None ->
      Some (Printf.sprintf "%s failed with %s; %s completed" a.engine e
              b.engine)
  | None, Some e ->
      Some (Printf.sprintf "%s completed; %s failed with %s" a.engine
              b.engine e)
  | None, None when not (String.equal a.report b.report) ->
      Some "run reports differ"
  | (Some _ | None), _ ->
      if not (String.equal a.realized b.realized) then
        Some "realized schedules differ"
      else None

let check ?flooding_b ?prof ~engine_a ~engine_b case =
  let a = execute ~engine:engine_a ?prof case in
  let b = execute ~engine:engine_b ?flooding:flooding_b ?prof case in
  divergence a b

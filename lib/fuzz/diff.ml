open! Dynet.Ops

(* What the differential harness needs from a flooding implementation.
   The real protocol satisfies it ([real_flooding]); the test suite's
   mutants are deliberately broken copies for the harness's own smoke
   test.  The
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

(* The unicast counterpart, for the protocol differential: production
   and the test suite's frozen copies run on the same engine through one
   direct engine call, so a divergence can only come from the
   protocol modules. *)
module type UNICAST = sig
  type state

  val protocol :
    (module Engine.Runner_unicast.PROTOCOL
       with type state = state
        and type msg = Gossip.Payload.t)

  val init : instance:Gossip.Instance.t -> state array
  val all_complete : k:int -> state array -> bool
end

let real_single_source config : (module UNICAST) =
  (module struct
    type state = Gossip.Single_source.state

    let protocol = Gossip.Single_source.protocol
    let init ~instance = Gossip.Single_source.init ~config ~instance ()
    let all_complete = Gossip.Single_source.all_complete
  end : UNICAST)

let real_multi_source source_order : (module UNICAST) =
  (module struct
    type state = Gossip.Multi_source.state

    let protocol = Gossip.Multi_source.protocol

    let init ~instance =
      Gossip.Multi_source.init ~source_order ~instance ()

    let all_complete = Gossip.Multi_source.all_complete
  end : UNICAST)

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

let execute_gen ~engine ~flooding ~unicast ?prof (case : Case.t) =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = case.Case.n and k = case.Case.k in
  let instance = Case.instance case in
  let faults = Case.fault_plan case in
  let schedule =
    Scenario.Replay.schedule ~past_end:Scenario.Replay.Loop (Case.to_trace case)
  in
  let recorder = Scenario.Record.create ~n () in
  let on_graph = Scenario.Record.observe recorder in
  let stall_after = Case.stall_after case in
  let realized () =
    Scenario.Trace_io.to_string (Scenario.Record.to_trace recorder)
  in
  run_caught ~engine_name:E.name ~name:(Case.label case) ~realized (fun () ->
      match case.Case.algo with
      | Case.Flooding ->
          (* Direct engine calls rather than [Runners], so the real
             protocol and a mutant or oracle copy share every line of
             wiring — a divergence can only come from the protocol
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
      | Case.Single_source | Case.Multi_source ->
          let (module U : UNICAST) = unicast in
          let max_rounds =
            Option.value case.Case.max_rounds
              ~default:(Gossip.Runners.default_unicast_cap ~n ~k)
          in
          let result, _ =
            E.Unicast.run U.protocol
              ~ctx:(Engine.Ctx.make ~faults ?prof ~on_graph ~stall_after ())
              ~target_progress:(n * k)
              ~states:(U.init ~instance)
              ~adversary:(Adversary.Schedule.unicast schedule)
              ~max_rounds
              ~stop:(U.all_complete ~k)
              ()
          in
          result)

let execute ~engine ?(flooding = real_flooding) ?prof (case : Case.t) =
  let unicast =
    match case.Case.algo with
    | Case.Multi_source -> real_multi_source Gossip.Multi_source.Min_source
    | Case.Single_source | Case.Flooding ->
        real_single_source Gossip.Single_source.default_config
  in
  execute_gen ~engine ~flooding ~unicast ?prof case

let execute_protocol ~engine ~protocol (case : Case.t) =
  match case.Case.algo with
  | Case.Flooding -> invalid_arg "Diff.execute_protocol: flooding case"
  | Case.Single_source | Case.Multi_source ->
      execute_gen ~engine ~flooding:real_flooding ~unicast:protocol case

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

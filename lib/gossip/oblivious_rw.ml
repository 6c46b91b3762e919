open Dynet.Ops

type result = {
  centers : int;
  skipped_phase1 : bool;
  phase1_rounds : int;
  phase1_settled : bool;
  phase2_rounds : int;
  completed : bool;
  cancelled : bool;
  ledger : Engine.Ledger.t;
  paper_messages : int;
}

(* The record of a run whose last engine run was [last] (phase 2, or
   phase 1 when a cancel ended the run there). *)
let summary ~centers ~skipped_phase1 ~phase1_rounds ~phase1_settled
    ~phase2_rounds ~(last : Engine.Run_result.t) ledger =
  {
    centers;
    skipped_phase1;
    phase1_rounds;
    phase1_settled;
    phase2_rounds;
    completed = last.Engine.Run_result.completed;
    cancelled =
      (match last.Engine.Run_result.outcome with
      | Engine.Run_result.Cancelled _ -> true
      | Engine.Run_result.Completed | Engine.Run_result.Partial _
      | Engine.Run_result.Stalled _ | Engine.Run_result.Aborted _ ->
          false);
    ledger;
    paper_messages =
      Engine.Ledger.total_excluding ledger [ Engine.Msg_class.Center ];
  }

let default_phase1_cap ~n = (50 * n) + 1000
let default_phase2_cap ~n ~k = (4 * n * k) + (4 * n * n)
let default_cap ~n ~k = default_phase1_cap ~n + default_phase2_cap ~n ~k

let run ~instance ~schedule ~seed ?(engine = Engine.Soa.default_engine)
    ?(const_f = 1.0) ?(const_gamma = 1.0) ?(force_rw = false) ?phase1_cap
    ?phase2_cap ?(obs = Obs.Sink.null) ?(prof = Obs.Span.null) ?cancel () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance in
  let k = Instance.k instance in
  let s = Instance.source_count instance in
  let phase1_cap = Option.value phase1_cap ~default:(default_phase1_cap ~n) in
  let phase2_cap =
    Option.value phase2_cap ~default:(default_phase2_cap ~n ~k)
  in
  let ctx = Engine.Ctx.make ~obs ~prof ?cancel () in
  let emit_phase name round =
    if not (Obs.Sink.is_null obs) then
      Obs.Sink.emit obs (Obs.Trace.Phase { name; round })
  in
  let run_multi_source ~inst ~offset ~init_prev ~cap =
    let states = Multi_source.init ~instance:inst () in
    let adversary ~round ~prev:_ ~states:_ ~traffic:_ =
      Adversary.Schedule.get schedule (round + offset)
    in
    E.Unicast.run Multi_source.protocol ~ctx ?init_prev ~states
      ~adversary ~max_rounds:cap
      ~stop:(Multi_source.all_complete ~k)
      ()
  in
  let below_threshold =
    (not force_rw) && float_of_int s <= Bounds.source_threshold ~n ()
  in
  if below_threshold then begin
    emit_phase "multi-source" 0;
    let res, _ =
      Obs.Span.with_span prof ~cat:"algo-phase" "multi-source" (fun () ->
          run_multi_source ~inst:instance ~offset:0 ~init_prev:None
            ~cap:phase2_cap)
    in
    summary ~centers:s ~skipped_phase1:true ~phase1_rounds:0
      ~phase1_settled:true ~phase2_rounds:res.Engine.Run_result.rounds
      ~last:res res.Engine.Run_result.ledger
  end
  else begin
    let rng = Dynet.Rng.make ~seed in
    let f = Bounds.centers_f ~c:const_f ~n ~k () in
    let gamma = Bounds.degree_gamma ~c:const_gamma ~n ~f () in
    let centers = Array.init n (fun _ -> Dynet.Rng.bernoulli rng (f /. float_of_int n)) in
    if not (Array.exists Fun.id centers) then
      centers.(Dynet.Rng.int rng n) <- true;
    let center_count =
      Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 centers
    in
    let states = Rw_phase.init ~instance ~centers ~gamma ~seed:(seed lxor 0x77) in
    let adversary ~round ~prev:_ ~states:_ ~traffic:_ =
      Adversary.Schedule.get schedule round
    in
    emit_phase "random-walk" 0;
    let res1, states =
      Obs.Span.with_span prof ~cat:"algo-phase" "random-walk" (fun () ->
          E.Unicast.run Rw_phase.protocol ~ctx ~states
            ~adversary ~max_rounds:phase1_cap ~stop:Rw_phase.settled ())
    in
    let summary =
      summary ~centers:center_count ~skipped_phase1:false
        ~phase1_rounds:res1.Engine.Run_result.rounds
        ~phase1_settled:res1.Engine.Run_result.completed
    in
    let cut =
      summary ~phase2_rounds:0 ~last:res1 res1.Engine.Run_result.ledger
    in
    if cut.cancelled then cut
    else begin
      (* Hand off: every remaining holder (centers, plus stragglers if
         the cap was hit) becomes a phase-2 source for the tokens it
         holds. *)
      let assignment = Array.make n [] in
      Array.iteri
        (fun v st ->
          match Rw_phase.holding st with
          | [] -> ()
          | tokens ->
              let tokens =
                List.sort
                  (fun (a : Token.t) b -> Int.compare a.uid b.uid)
                  tokens
              in
              assignment.(v) <-
                List.mapi (fun i tok -> Token.relabel tok ~src:v ~idx:i)
                  tokens)
        states;
      let inst2 = Instance.make ~n ~assignment in
      let last_graph =
        if res1.Engine.Run_result.rounds = 0 then None
        else
          Some (Adversary.Schedule.get schedule res1.Engine.Run_result.rounds)
      in
      emit_phase "multi-source" res1.Engine.Run_result.rounds;
      let res2, _ =
        Obs.Span.with_span prof ~cat:"algo-phase" "multi-source" (fun () ->
            run_multi_source ~inst:inst2
              ~offset:res1.Engine.Run_result.rounds ~init_prev:last_graph
              ~cap:phase2_cap)
      in
      summary ~phase2_rounds:res2.Engine.Run_result.rounds ~last:res2
        (Engine.Ledger.merge res1.Engine.Run_result.ledger
           res2.Engine.Run_result.ledger)
    end
  end

let to_report ~name ?(extra = []) ~k r =
  let outcome =
    if r.cancelled then
      Some
        (Engine.Run_result.Cancelled
           { achieved = Engine.Ledger.learnings r.ledger; target = None })
    else None
  in
  Engine.Run_result.to_report ~name
    ~extra:
      (extra
      @ [
          ("centers", Obs.Json.Int r.centers);
          ("skipped_phase1", Obs.Json.Bool r.skipped_phase1);
          ("phase1_rounds", Obs.Json.Int r.phase1_rounds);
          ("phase1_settled", Obs.Json.Bool r.phase1_settled);
          ("phase2_rounds", Obs.Json.Int r.phase2_rounds);
          ("paper_messages", Obs.Json.Int r.paper_messages);
          ( "amortized_per_token",
            Obs.Json.Float (float_of_int r.paper_messages /. float_of_int k) );
        ])
    (Engine.Run_result.make ?outcome
       ~rounds:(r.phase1_rounds + r.phase2_rounds)
       ~completed:r.completed ~ledger:r.ledger ~timeline:[] ())

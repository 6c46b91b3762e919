type unicast_env =
  | Oblivious of Adversary.Schedule.t
  | Request_cutting of { seed : int; cut_prob : float }

let default_unicast_cap ~n ~k = (4 * n * k) + (4 * n * n) + 64
let default_broadcast_cap ~n ~k = (n * k) + n + 64

let unicast_adversary ~n = function
  | Oblivious schedule -> Adversary.Schedule.unicast schedule
  | Request_cutting { seed; cut_prob } ->
      Adversary.Request_cutter.adversary ~seed ~n ~cut_prob

let single_source ~instance ~env ?(engine = Engine.Soa.default_engine)
    ?max_rounds ?stall_after ?cancel ?config ?faults ?obs ?prof ?on_graph () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_unicast_cap ~n ~k)
  in
  let states = Single_source.init ?config ~instance () in
  E.Unicast.run Single_source.protocol
    ~ctx:(Engine.Ctx.make ?obs ?faults ?prof ?on_graph ?stall_after ?cancel ())
    ~target_progress:(n * k) ~states
    ~adversary:(unicast_adversary ~n env)
    ~max_rounds
    ~stop:(Single_source.all_complete ~k)
    ()

let multi_source ~instance ~env ?(engine = Engine.Soa.default_engine) ?max_rounds
    ?stall_after ?cancel ?source_order ?seed ?faults ?obs ?prof ?on_graph () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_unicast_cap ~n ~k)
  in
  let states = Multi_source.init ?source_order ?seed ~instance () in
  E.Unicast.run Multi_source.protocol
    ~ctx:(Engine.Ctx.make ?obs ?faults ?prof ?on_graph ?stall_after ?cancel ())
    ~target_progress:(n * k) ~states
    ~adversary:(unicast_adversary ~n env)
    ~max_rounds
    ~stop:(Multi_source.all_complete ~k)
    ()

(* {2 Reliable (ack + retransmit) variants} *)

module Reliable_single = Reliable.Make ((val Single_source.protocol))
module Reliable_multi = Reliable.Make ((val Multi_source.protocol))

(* The wrapper records each node's retransmissions of a round in its
   own state, so its [send] stays pure.  Every engine evaluates [stop]
   sequentially, once before round 1 and once after each round's
   receive, so this wrapper counts each round's records there into
   [total] and, when tracing, emits them as [retransmit] fault events
   in node order, the same on every engine.  Counting per round keeps
   the retransmissions of a node that a crash-restart later resets to
   its initial state. *)
let counting_retransmits obs ~resent ~total stop =
  let sink = Option.value obs ~default:Obs.Sink.null in
  let tracing = not (Obs.Sink.is_null sink) in
  let round = ref 0 in
  fun states ->
    Array.iteri
      (fun v st ->
        match resent st with
        | r, dsts when Int.equal r !round ->
            total := !total + List.length dsts;
            if tracing then
              List.iter
                (fun dst ->
                  Obs.Sink.emit sink
                    (Obs.Trace.Fault
                       { round = r; kind = "retransmit"; node = v;
                         dst = Some dst; cls = None }))
                dsts
        | _ -> ())
      states;
    incr round;
    stop states

(* Run a wrapped protocol and tally the wrapper's retransmissions into
   the run's fault counts, so degraded runs report their self-healing
   work alongside the faults it masked. *)
let run_reliable ~engine protocol ~inner ~resent ~complete ~instance ~env
    ?max_rounds ?faults ?obs ?prof states =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(2 * default_unicast_cap ~n ~k)
  in
  let total = ref 0 in
  let result, states =
    E.Unicast.run protocol
      ~ctx:(Engine.Ctx.make ?obs ?faults ?prof ())
      ~target_progress:(n * k) ~states
      ~adversary:(unicast_adversary ~n env)
      ~max_rounds
      ~stop:
        (counting_retransmits obs ~resent ~total (fun sts ->
             complete ~k (Array.map inner sts)))
      ()
  in
  (match result.Engine.Run_result.fault_counts with
  | Some c -> c.Faults.Counts.retransmits <- !total
  | None -> ());
  (result, Array.map inner states, !total)

let reliable_single_source ~instance ~env ?(engine = Engine.Soa.default_engine)
    ?max_rounds ?config ?rto ?backoff ?faults ?obs ?prof () =
  run_reliable ~engine Reliable_single.protocol ~inner:Reliable_single.inner
    ~resent:Reliable_single.resent
    ~complete:Single_source.all_complete ~instance ~env ?max_rounds ?faults
    ?obs ?prof
    (Reliable_single.wrap ?rto ?backoff (Single_source.init ?config ~instance ()))

let reliable_multi_source ~instance ~env ?(engine = Engine.Soa.default_engine)
    ?max_rounds ?source_order ?seed ?rto ?backoff ?faults ?obs ?prof () =
  run_reliable ~engine Reliable_multi.protocol ~inner:Reliable_multi.inner
    ~resent:Reliable_multi.resent
    ~complete:Multi_source.all_complete ~instance ~env ?max_rounds ?faults
    ?obs ?prof
    (Reliable_multi.wrap ?rto ?backoff
       (Multi_source.init ?source_order ?seed ~instance ()))

let flooding ~instance ~schedule ?(engine = Engine.Soa.default_engine) ?phase_len
    ?max_rounds ?stall_after ?cancel ?faults ?obs ?prof ?on_graph () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_broadcast_cap ~n ~k)
  in
  let states = Flooding.init ~instance ?phase_len () in
  E.Broadcast.run Flooding.protocol
    ~ctx:(Engine.Ctx.make ?obs ?faults ?prof ?on_graph ?stall_after ?cancel ())
    ~target_progress:(n * k) ~states
    ~adversary:(Adversary.Schedule.broadcast schedule)
    ~max_rounds
    ~stop:(Flooding.all_complete ~k)
    ()

let token_uid_of_msg = function
  | Payload.Token_msg tok -> Some tok.Token.uid
  | Payload.Completeness _ | Payload.Request _ | Payload.Walk_msg _
  | Payload.Center_announce ->
      None

let flooding_vs_lower_bound ~instance ~seed ?(engine = Engine.Soa.default_engine)
    ?max_rounds ?cancel ?obs ?prof () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_broadcast_cap ~n ~k)
  in
  let lb =
    Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed) ~n ~k
  in
  let adversary =
    Adversary.Broadcast_lb.to_engine lb ~knows:Flooding.knows
      ~token_of:token_uid_of_msg
  in
  let states = Flooding.init ~instance () in
  let result, states =
    E.Broadcast.run Flooding.protocol
      ~ctx:(Engine.Ctx.make ?obs ?prof ?cancel ()) ~states
      ~adversary
      ~max_rounds
      ~stop:(Flooding.all_complete ~k)
      ()
  in
  (result, states, lb)

let greedy_vs_lower_bound ~instance ~policy ~seed
    ?(engine = Engine.Soa.default_engine) ?max_rounds ?obs ?prof () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_broadcast_cap ~n ~k)
  in
  let lb =
    Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:(seed lxor 0x3c)) ~n ~k
  in
  let adversary =
    Adversary.Broadcast_lb.to_engine lb ~knows:Greedy_bcast.knows
      ~token_of:token_uid_of_msg
  in
  let states = Greedy_bcast.init ~instance ~policy ~seed () in
  let result, states =
    E.Broadcast.run Greedy_bcast.protocol
      ~ctx:(Engine.Ctx.make ?obs ?prof ()) ~states
      ~adversary
      ~max_rounds
      ~stop:(Greedy_bcast.all_complete ~k)
      ()
  in
  (result, states, lb)

let random_push ~instance ~env ~seed ?(engine = Engine.Soa.default_engine)
    ?max_rounds ?faults ?obs ?prof () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(4 * default_unicast_cap ~n ~k)
  in
  let states = Random_push.init ~instance ~seed in
  E.Unicast.run Random_push.protocol
    ~ctx:(Engine.Ctx.make ?obs ?faults ?prof ())
    ~target_progress:(n * k) ~states
    ~adversary:(unicast_adversary ~n env)
    ~max_rounds
    ~stop:(Random_push.all_complete ~k)
    ()

let leader_election ~n ~env ?(engine = Engine.Soa.default_engine) ?max_rounds
    ?faults ?obs ?prof () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let max_rounds = Option.value max_rounds ~default:((8 * n * n) + 64) in
  let states = Leader_election.init ~n in
  E.Unicast.run Leader_election.protocol
    ~ctx:(Engine.Ctx.make ?obs ?faults ?prof ())
    ~target_progress:n ~states
    ~adversary:(unicast_adversary ~n env)
    ~max_rounds
    ~stop:(Leader_election.elected ~n)
    ()

let coded_broadcast ~instance ~schedule ~seed
    ?(engine = Engine.Soa.default_engine) ?max_rounds ?faults ?obs ?prof () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_broadcast_cap ~n ~k)
  in
  let states = Coded_bcast.init ~instance ~seed in
  E.Broadcast.run Coded_bcast.protocol
    ~ctx:(Engine.Ctx.make ?obs ?faults ?prof ())
    ~target_progress:(n * k) ~states
    ~adversary:(Adversary.Schedule.broadcast schedule)
    ~max_rounds
    ~stop:(Coded_bcast.all_decoded ~k)
    ()

let oblivious_rw = Oblivious_rw.run

let sample_contacts =
  {csv|# office badge-proximity contacts, one working morning
# t,u,v,duration  (seconds; 20 s sampling resolution)
28800,101,110,20
28801,102,101,20
28801,102,105,20
28803,110,102,20
28804,105,102,20
28809,103,108,60
28810,120,124,60
28811,110,103,20
28811,124,112,40
28815,117,107,60
28817,107,121,20
28817,112,117,20
28818,101,117,60
28818,105,120,40
28818,115,102,20
28818,121,115,60
28819,115,110,20
28822,103,105,40
28822,110,120,20
28822,115,110,20
28824,101,115,60
28828,112,107,60
28829,117,101,60
28829,120,108,60
28830,103,108,40
28831,121,112,20
28833,102,124,20
28834,124,103,40
28838,108,121,60
28839,107,102,60
28840,107,120,60
28840,112,102,20
28844,102,117,20
28844,115,108,20
28845,103,110,20
28847,105,101,20
28848,110,105,40
28852,102,103,20
28852,120,124,60
28852,121,107,20
28853,101,112,40
28853,112,110,40
28854,117,103,60
28855,124,110,60
28858,108,121,20
28859,115,107,40
28862,112,121,20
28863,107,115,60
28863,115,102,40
28864,102,105,40
28864,121,102,20
28865,117,110,20
28866,101,102,60
28866,120,108,40
28868,115,124,60
28871,103,112,40
28874,108,117,60
28875,105,101,20
28875,110,107,40
28876,124,103,40
28880,103,108,40
28882,124,121,20
28886,101,105,60
28886,107,102,40
28886,115,107,40
28886,117,101,60
28887,110,124,20
28887,112,103,60
28891,102,120,20
28891,110,121,20
28894,108,115,40
28895,105,110,40
28895,124,105,40
28899,121,112,20
28902,115,108,20
28905,120,102,20
28914,107,101,60
28920,103,101,40
28924,110,124,20
28926,102,115,20
28926,103,110,40
28928,108,120,60
28931,112,117,60
28934,121,112,20
28936,105,110,20
28936,115,121,20
28936,120,121,20
28937,117,103,20
28938,107,102,40
28938,115,108,60
28939,124,107,20
28942,101,107,60
28942,120,121,20
28947,117,101,60
28948,103,124,60
28949,121,103,20
28950,102,112,20
28950,115,112,20
28952,115,110,60
28953,112,120,20
28954,110,108,20
28956,105,107,60
28956,105,117,20
28956,107,102,40
28957,101,102,20
28957,108,105,20
28960,105,102,40
28961,120,105,20
28962,103,124,40
28963,115,112,20
28963,117,115,20
28968,120,103,40
28968,121,108,20
28971,103,121,40
28972,101,110,40
28972,110,105,40
28973,102,107,20
28974,108,120,20
28976,110,115,40
28976,112,101,20
28977,107,121,60
28980,120,110,40
28980,124,107,20
28981,102,117,20
28981,121,117,20
28983,103,124,20
28985,105,121,20
28988,101,115,20
28988,102,107,20
28988,105,102,20
28988,117,101,40
28989,107,120,40
28989,112,103,60
28990,102,105,60
28994,101,120,20
28996,108,112,20
28996,115,108,20
29001,105,121,20
29002,105,108,40
29004,101,124,60
29004,103,117,20
29005,117,107,40
29007,124,103,20
29008,121,105,40
29009,110,102,20
29010,121,120,40
29011,102,121,20
29012,107,120,40
29013,105,112,20
29014,112,115,20
29014,120,108,20
29019,108,110,20
29022,110,115,40
29022,124,117,20
29027,102,112,20
29040,120,103,20
29040,121,112,60
29041,101,117,60
29041,108,103,20
29042,107,120,20
29042,121,115,20
29042,124,108,40
29051,112,105,20
29052,115,102,60
29055,120,124,40
29055,124,101,40
29056,102,108,20
29056,103,107,20
29056,121,117,20
29057,117,110,20
29058,105,121,20
29060,107,102,60
29061,108,101,60
29062,101,117,20
29066,112,120,60
29068,110,115,20
29069,103,108,20
29069,115,112,40
29069,120,124,20
29069,124,121,60
29070,102,103,40
29074,117,110,60
29074,117,120,20
29075,121,105,20
29077,120,105,20
29080,103,121,20
29080,105,110,60
29080,115,102,40
29080,120,115,40
29082,121,120,60
29083,112,115,40
29083,120,108,20
29087,101,124,60
29088,121,108,40
29089,107,112,20
29090,117,101,60
29092,110,107,40
29092,124,105,20
29093,108,117,40
29094,107,102,60
29095,103,117,60
29101,105,121,20
29102,101,120,20
29103,120,101,20
29105,107,110,60
29105,121,112,20
29106,124,110,60
29108,112,103,40
29109,105,108,60
29109,110,115,40
29109,115,108,60
29112,115,105,20
29113,102,120,60
29113,110,108,40
29117,101,107,20
29117,117,102,60
29117,124,117,20
29119,103,124,20
28803,103,103,20
28800,101,110,20
|csv}

let timed ?metrics id body = Obs.Span.observe_span ?metrics ~name:id body

let real_trace ?jobs ?metrics ~seed () =
  timed ?metrics "experiment/e17-real-trace" @@ fun () ->
  let trace, stats =
    match Contacts.import ~provenance:"import:office_contacts.csv" sample_contacts with
    | Ok r -> r
    | Error e -> invalid_arg ("E17: embedded contacts failed to import: " ^ e)
  in
  let n = trace.Trace_io.header.n in
  let k = n in
  let s_sources = 4 in
  let instance =
    Gossip.Instance.multi_source
      ~rng:(Dynet.Rng.make ~seed:(seed + 1))
      ~n ~k ~s:s_sources
  in
  let schedule () = Replay.schedule ~past_end:Replay.Loop trace in
  let algorithms = [| `Flooding; `Multi_source; `Oblivious_rw |] in
  let results =
    Analysis.Sweep.map ?jobs
      (fun algo ->
        match algo with
        | `Flooding ->
            let result, _ =
              Gossip.Runners.flooding ~instance ~schedule:(schedule ()) ()
            in
            ("flooding", result.Engine.Run_result.rounds,
             result.Engine.Run_result.completed, result.Engine.Run_result.ledger)
        | `Multi_source ->
            let result, _ =
              Gossip.Runners.multi_source ~instance
                ~env:(Gossip.Runners.Oblivious (schedule ()))
                ()
            in
            ("multi-source", result.Engine.Run_result.rounds,
             result.Engine.Run_result.completed, result.Engine.Run_result.ledger)
        | `Oblivious_rw ->
            let r =
              Gossip.Runners.oblivious_rw ~instance ~schedule:(schedule ())
                ~seed ~const_f:0.05 ~force_rw:true ()
            in
            ( "oblivious-rw",
              r.Gossip.Oblivious_rw.phase1_rounds
              + r.Gossip.Oblivious_rw.phase2_rounds,
              r.Gossip.Oblivious_rw.completed,
              r.Gossip.Oblivious_rw.ledger ))
      algorithms
  in
  let rows =
    Array.to_list results
    |> List.map (fun (name, rounds, completed, ledger) ->
           [
             name;
             string_of_int rounds;
             Analysis.Table.fint (Engine.Ledger.total ledger);
             Analysis.Table.ffloat (Engine.Ledger.amortized ledger ~k);
             (if completed then "yes" else "no");
           ])
  in
  let all_completed =
    Array.for_all (fun (_, _, completed, _) -> completed) results
  in
  let messages_of i =
    let _, _, _, ledger = results.(i) in
    Engine.Ledger.total ledger
  in
  let rounds_of i =
    let _, rounds, _, _ = results.(i) in
    rounds
  in
  let flooding_fastest =
    rounds_of 0 <= rounds_of 1 && rounds_of 0 <= rounds_of 2
  in
  let rw_cheaper = messages_of 2 < messages_of 1 in
  Analysis.Table.make
    ~title:
      (Printf.sprintf
         "E17: real-format contact trace (n=%d, k=%d, s=%d, %d imported rounds, looped)"
         n k s_sources (Trace_io.rounds trace))
    ~columns:[ "algorithm"; "rounds"; "messages"; "amortized/token"; "completed" ]
    ~notes:
      [
        Printf.sprintf
          "import: %d contacts, %d self-loops dropped, %d duplicates collapsed, %d out-of-order"
          stats.Contacts.contacts stats.Contacts.self_loops
          stats.Contacts.duplicates stats.Contacts.out_of_order;
        Printf.sprintf
          "repair: %d of %d rounds disconnected, %d edges added (workload altered by that much)"
          stats.Contacts.repaired_rounds stats.Contacts.imported_rounds
          stats.Contacts.repaired_edges;
        Printf.sprintf
          "shape check: all complete (%b), flooding fastest (%b), Algorithm 2 cheaper than plain multi-source (%b) -> %s"
          all_completed flooding_fastest rw_cheaper
          (if all_completed && flooding_fastest && rw_cheaper then "PASS"
           else "FAIL");
      ]
    rows

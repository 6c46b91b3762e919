let recommended_jobs () = Domain.recommended_domain_count ()

(* Shared-cursor work sharing: slot [i] of [results] only ever belongs
   to point [i], so the only cross-domain contention is the Atomic
   cursor itself, and the join gives the caller a happens-before edge
   over every slot.  Each domain owns a {!Obs.Span.worker} lane (one
   mutable profiler per domain — the lanes are absorbed back by the
   calling domain only after the join, like the metrics merge), and
   the wrapping sweep span carries per-worker busy seconds and a
   finish-time imbalance counter. *)
let map_span ?(jobs = 1) ?metrics ?(prof = Obs.Span.null) ~name
    (f : prof:Obs.Span.t -> 'a -> 'b) points =
  let n = Array.length points in
  let results = Array.make n None in
  let job wp i =
    results.(i) <-
      Some
        (try
           Ok
             (Obs.Span.with_span wp ~cat:"point" name (fun () ->
                  Obs.Span.time (fun () -> f ~prof:wp points.(i))))
         with e -> Error e)
  in
  Obs.Span.with_span prof ~cat:"sweep" ("sweep:" ^ name) (fun () ->
      if jobs <= 1 || n <= 1 then
        for i = 0 to n - 1 do
          job prof i
        done
      else begin
        let workers = min jobs n in
        let cursor = Atomic.make 0 in
        let busy = Array.make workers 0. in
        (* Worker 0 is the calling domain and records into the caller's
           own lane; helpers get fresh lanes sharing the epoch. *)
        let lanes =
          Array.init workers (fun w ->
              if w = 0 then prof
              else
                Obs.Span.worker prof ~tid:(w + 1)
                  ~lane:(Printf.sprintf "sweep-w%d" w))
        in
        let worker w () =
          let wp = lanes.(w) in
          let t0 = Obs.Span.now_s () in
          let rec loop () =
            let i = Atomic.fetch_and_add cursor 1 in
            if i < n then begin
              job wp i;
              loop ()
            end
          in
          loop ();
          busy.(w) <- Obs.Span.now_s () -. t0
        in
        let helpers =
          List.init (workers - 1) (fun w -> Domain.spawn (worker (w + 1)))
        in
        worker 0 ();
        List.iter Domain.join helpers;
        Array.iteri
          (fun w lane -> if w > 0 then Obs.Span.absorb prof ~from:lane)
          lanes;
        let bmax = Array.fold_left Float.max 0. busy in
        let bmin = Array.fold_left Float.min busy.(0) busy in
        Array.iteri
          (fun w b ->
            Obs.Span.add_counter prof (Printf.sprintf "busy_s_w%d" w) b)
          busy;
        Obs.Span.add_counter prof "imbalance"
          (if bmax > 0. then (bmax -. bmin) /. bmax else 0.)
      end);
  (* First failure by input index, not by completion order, and before
     any metrics are recorded. *)
  Array.iter
    (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
    results;
  Array.map
    (function
      | Some (Ok (r, dt)) ->
          (match metrics with
          | Some m -> Obs.Metrics.observe m name dt
          | None -> ());
          r
      | Some (Error _) | None -> assert false)
    results

let map ?jobs f points =
  map_span ?jobs ~name:"map" (fun ~prof:_ x -> f x) points

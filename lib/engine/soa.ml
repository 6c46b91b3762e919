open Dynet.Ops

(* The mega-scale struct-of-arrays engine.

   Three execution strategies behind the one ENGINE seam, chosen per
   run:

   - {b plane kernel} (broadcast, protocol advertises
     [Runner_broadcast.plane_spec], no faults): token masks live in
     one contiguous Bigarray word plane ([Dynet.Plane], node-major),
     adjacency in a delta-gated CSR ([Dynet.Csr]), and a round is two
     sharded passes over flat memory with no intents array, no inbox
     lists, and no per-round state records — allocation only happens
     when a node actually learns a token (to keep [states] live for
     [stop] and adaptive adversaries).
   - {b sharded unicast}: every unicast run, faulty or not, runs the
     shared production loop [Runner_unicast.run_sharded] over this
     engine's shard spans — [P.send]/[P.receive] fan out across the
     Domain pool, and all accounting (checks, ledger, trace, traffic,
     fault draws, inbox assembly) replays sequentially in node order
     between the barriers.
   - {b delegation}: fault-injected broadcast runs, and broadcast
     protocols without the plane capability, run on the sequential
     fast path ([Runner_broadcast]) unchanged.

   Determinism: each worker owns a contiguous node range and writes
   only its own plane rows and array slots; every cross-shard
   combination (bit-plane OR, counter sums) happens in ascending shard
   order, either in the coordinator or in a phase whose reads are
   frozen by the barrier.  Reports are therefore bit-identical at any
   shard count, which the differential fuzz harness enforces. *)

let kernel_name = "soa"

(* {2 The plane kernel} *)

let run_plane (type s m)
    (module P : Runner_broadcast.PROTOCOL with type state = s and type msg = m)
    (spec : (s, m) Runner_broadcast.plane_spec) ~spans ~ctx ?init_prev
    ?target_progress ~(states : s array)
    ~(adversary : (s, m) Runner_broadcast.adversary) ~max_rounds ~stop () =
  let n = Array.length states in
  let shards = Array.length spans in
  let k = spec.Runner_broadcast.width states.(0) in
  let ledger = Ledger.create () in
  let obs = ctx.Ctx.obs in
  let tracing = not (Obs.Sink.is_null obs) in
  let checking = Check.enabled () in
  let c_sent = ref 0 and c_created = ref 0 and c_consumed = ref 0 in
  (* One contiguous plane per run: row v is node v's known-token mask. *)
  let plane = Dynet.Plane.create ~rows:n ~width:k in
  for v = 0 to n - 1 do
    Dynet.Plane.load_row plane v (spec.mask states.(v))
  done;
  (* Broadcaster bit-plane: rows [0 .. shards-1] are per-shard staging
     rows (each worker writes only its own row, and rows never share a
     word), row [shards] is the merged round view.  Staging means spans
     need no word alignment, so tiny fuzz instances still exercise
     real multi-shard execution. *)
  let bplane = Dynet.Plane.create ~rows:(shards + 1) ~width:n in
  let merged = shards in
  let known = Array.make n 0 in
  let total_known = ref 0 in
  for v = 0 to n - 1 do
    known.(v) <- Dynet.Plane.row_popcount plane v;
    total_known := !total_known + known.(v)
  done;
  (* Per-node send counts, flushed into the ledger's load table once at
     run end (the aggregates reported are insertion-order independent;
     flushing avoids a hash probe per broadcaster per round). *)
  let loads = Array.make n 0 in
  let shard_sends = Array.make shards 0 in
  let shard_learned = Array.make shards 0 in
  let shard_copies = Array.make shards 0 in
  let csr = Dynet.Csr.create ~n in
  (* Per-phase caches so the adversary-visible intents array can be
     filled without allocating: one [Some msg] cell per catalog token,
     shared by every broadcaster of that phase ([plane_spec.message]
     depends only on run constants, so node 0's state may build it). *)
  let phase_msgs : m option array = Array.make k None in
  let phase_cls = Array.make k Msg_class.Token in
  let intents : m option array = Array.make n None in
  (* Broadcaster index lists, alongside the bit rows: each worker
     appends its span's broadcasters to its own slice of [active]
     (slices are span-disjoint, so no races), and the publish step
     walks last round's list to blank stale intents and this round's
     to set fresh ones.  Rewriting all n option cells per round costs
     n write-barrier hits; touching only the ~b changed cells is what
     keeps the intents array off the round-loop profile. *)
  let active = Array.make (max 1 n) 0 in
  let cur_phase = ref 0 in
  let b = ref 0 in
  let prev = ref (Option.value init_prev ~default:(Dynet.Graph.empty ~n)) in
  (* Validity gate, delta-gated like the CSR: a graph physically equal
     to the last validated one (what Stability returns on stable
     rounds) cannot have changed its node count or connectivity, so
     stable rounds skip the O(n + m) union-find walk — and its
     allocation.  Seeded with a fresh sentinel no adversary graph can
     alias. *)
  let last_valid = ref (Dynet.Graph.empty ~n) in
  let validate ~round g =
    if g != !last_valid then begin
      Engine_error.check_graph ~round ~n g;
      last_valid := g
    end
  in
  let run =
    Ctx.start ctx ~ledger ~max_rounds ~target:target_progress
      ~progress:(fun () -> !total_known)
      ~stop:(fun () -> stop states)
  in
  (* Hoisted phase jobs: the same two closures fire every round, so the
     barrier machinery allocates nothing inside the loop. *)
  let intent_job ~shard ~lo ~hi =
    Dynet.Plane.row_clear bplane shard;
    let p = !cur_phase in
    let len = ref 0 in
    for v = lo to hi - 1 do
      if Dynet.Plane.unsafe_mem plane v p then begin
        Dynet.Plane.unsafe_set bplane shard v;
        active.(lo + !len) <- v;
        incr len;
        loads.(v) <- loads.(v) + 1
      end
    done;
    shard_sends.(shard) <- !len
  [@@dynlint.hot]
  in
  (* Tail-recursive row scans, allocated once: [row_any] stops at the
     first broadcasting neighbor, [row_count] counts them all for the
     conservation counters when invariants are on. *)
  let rec row_any i stop =
    if i >= stop then false
    else if Dynet.Plane.unsafe_mem bplane merged (Dynet.Csr.neighbor csr i)
    then true
    else row_any (i + 1) stop
  [@@dynlint.hot]
  in
  let rec row_count i stop acc =
    if i >= stop then acc
    else
      row_count (i + 1) stop
        (if Dynet.Plane.unsafe_mem bplane merged (Dynet.Csr.neighbor csr i)
         then acc + 1
         else acc)
  [@@dynlint.hot]
  in
  let receive_job ~shard ~lo ~hi =
    let p = !cur_phase in
    for v = lo to hi - 1 do
      let start = Dynet.Csr.row_start csr v and stop = Dynet.Csr.row_stop csr v in
      let got =
        if checking then begin
          let copies = row_count start stop 0 in
          shard_copies.(shard) <- shard_copies.(shard) + copies;
          copies > 0
        end
        else row_any start stop
      in
      if got && not (Dynet.Plane.unsafe_mem plane v p) then begin
        Dynet.Plane.unsafe_set plane v p;
        known.(v) <- known.(v) + 1;
        shard_learned.(shard) <- shard_learned.(shard) + 1;
        states.(v) <-
          spec.restate states.(v)
            ~mask:(Dynet.Plane.extract_row plane v)
            ~known:known.(v)
      end
    done
  [@@dynlint.hot]
  in
  (* Push-side delivery for sparse rounds.  [receive_job] pulls: every
     node scans its neighbors until one broadcasts, which costs O(m)
     when broadcasters are rare (every scan runs to the end) but ~O(n)
     when they are dense (scans stop almost immediately).  With [b]
     broadcasters the push side costs O(n + sum of their degrees), so
     it wins exactly where pull loses; each round picks by density.
     Same staging discipline as [bplane]: a worker writes only its own
     row of [gplane] (bits indexed by the *receiving* node), rows are
     merged in ascending shard order, so delivery stays race-free and
     bit-identical to the pull path. *)
  let gplane = Dynet.Plane.create ~rows:(shards + 1) ~width:n in
  let push_job ~shard ~lo ~hi:_ =
    Dynet.Plane.row_clear gplane shard;
    (* A span's broadcasters are exactly its slice of [active], so the
       push side never rescans the span — it costs the sum of the
       broadcasters' degrees, which is what made it worth picking. *)
    for j = 0 to shard_sends.(shard) - 1 do
      let u = active.(lo + j) in
      let start = Dynet.Csr.row_start csr u
      and stop = Dynet.Csr.row_stop csr u in
      for i = start to stop - 1 do
        Dynet.Plane.unsafe_set gplane shard (Dynet.Csr.neighbor csr i)
      done
    done
  [@@dynlint.hot]
  in
  let apply_job ~shard ~lo ~hi =
    let p = !cur_phase in
    for v = lo to hi - 1 do
      if
        Dynet.Plane.unsafe_mem gplane merged v
        && not (Dynet.Plane.unsafe_mem plane v p)
      then begin
        Dynet.Plane.unsafe_set plane v p;
        known.(v) <- known.(v) + 1;
        shard_learned.(shard) <- shard_learned.(shard) + 1;
        states.(v) <-
          spec.restate states.(v)
            ~mask:(Dynet.Plane.extract_row plane v)
            ~known:known.(v)
      end
    done
  [@@dynlint.hot]
  in
  Shard_pool.with_pool ~spans @@ fun pool ->
  while Ctx.next run do
    let r = Ctx.round run in
    Ctx.phase run "intent";
    let p = spec.phase_of states.(0) ~round:r in
    cur_phase := p;
    (match phase_msgs.(p) with
    | Some _ -> ()
    | None ->
        let msg = spec.message states.(0) p in
        phase_msgs.(p) <- Some msg;
        phase_cls.(p) <- P.classify msg);
    (* Blank last round's intents before the workers overwrite the
       index lists; the publish loop below then touches only this
       round's cells.  ([shard_sends] still holds last round's counts
       here — it is reassigned, not reset, by [intent_job].) *)
    for s = 0 to shards - 1 do
      let lo, _ = spans.(s) in
      for j = 0 to shard_sends.(s) - 1 do
        intents.(active.(lo + j)) <- None
      done
    done;
    Shard_pool.run pool intent_job;
    (* Merge the staging rows and publish the round's intents, in
       ascending shard order. *)
    b := 0;
    Dynet.Plane.row_clear bplane merged;
    let msg_cell = phase_msgs.(p) in
    for s = 0 to shards - 1 do
      Dynet.Plane.union_row_into bplane ~src:s ~dst:merged;
      let lo, _ = spans.(s) in
      for j = 0 to shard_sends.(s) - 1 do
        intents.(active.(lo + j)) <- msg_cell
      done;
      b := !b + shard_sends.(s)
    done;
    Ctx.phase run "adversary";
    let g = adversary ~round:r ~prev:!prev ~states ~intents in
    Ctx.phase run "graph";
    validate ~round:r g;
    Ctx.commit_graph run ~prev:!prev g;
    Ctx.phase run "send";
    if !b > 0 then Ledger.record ledger phase_cls.(p) !b;
    if checking then c_sent := !c_sent + !b;
    if tracing then begin
      let cls_name = Msg_class.to_string phase_cls.(p) in
      for v = 0 to n - 1 do
        if Dynet.Plane.unsafe_mem bplane merged v then
          Obs.Sink.emit obs
            (Obs.Trace.Send { round = r; src = v; dst = None; cls = cls_name })
      done
    end;
    Ctx.phase run "deliver";
    ignore (Dynet.Csr.update csr g : bool);
    Ctx.phase run "receive";
    (* Conservation checking needs the pull path (it counts every
       delivered copy per receiver); otherwise pick by density — pull
       when broadcasters are dense (scans stop early), push when they
       are sparse (pull would scan every edge and mostly miss), and
       nothing on silent rounds.  The crossover is where pull's
       expected ~n²/b probes meet push's b·avg-degree writes. *)
    (if checking || 4 * !b >= n then Shard_pool.run pool receive_job
     else if !b > 0 then begin
       Shard_pool.run pool push_job;
       Dynet.Plane.row_clear gplane merged;
       for s = 0 to shards - 1 do
         Dynet.Plane.union_row_into gplane ~src:s ~dst:merged
       done;
       Shard_pool.run pool apply_job
     end);
    for s = 0 to shards - 1 do
      total_known := !total_known + shard_learned.(s);
      shard_learned.(s) <- 0;
      if checking then begin
        c_created := !c_created + shard_copies.(s);
        c_consumed := !c_consumed + shard_copies.(s);
        shard_copies.(s) <- 0
      end
    done;
    if checking then begin
      Ctx.phase run "check";
      Check.connected
        ~what:(Printf.sprintf "round %d: adversary graph connectivity" r)
        g;
      Check.require ~what:"ledger total equals broadcasts performed" (fun () ->
          Ledger.total ledger = !c_sent);
      Check.require ~what:"message-copy conservation" (fun () ->
          Check.conserved ~created:!c_created ~consumed:!c_consumed ~dropped:0
            ~in_flight:0)
    end;
    prev := g;
    Ctx.round_done run
  done;
  for v = 0 to n - 1 do
    if loads.(v) > 0 then Ledger.record_sender ledger v loads.(v)
  done;
  (Ctx.finish run ~fault_counts:None, states)

(* {2 Engine packaging} *)

let spans_for ~n ~shards ~boundary_bug =
  let spans = Shard_pool.ranges ~n ~shards () in
  if boundary_bug && Array.length spans > 1 then begin
    (* The seeded mutant for the fuzz harness's smoke test: shard 1
       starts one node late, so the node on the 0/1 boundary is owned
       by nobody — the classic off-by-one in a range partition. *)
    let lo, hi = spans.(1) in
    if lo < hi then spans.(1) <- (min (lo + 1) hi, hi)
  end;
  spans

let make ?(shards = 1) ?(boundary_bug = false) () =
  if shards < 1 then invalid_arg "Soa.make: shards must be >= 1";
  let module E = struct
    let name =
      if shards = 1 then kernel_name
      else Printf.sprintf "%s-%d" kernel_name shards

    module Broadcast = struct
      let run (type s m)
          (module P : Runner_broadcast.PROTOCOL
            with type state = s
             and type msg = m) ?(ctx = Ctx.default) ?init_prev
          ?target_progress ~states ~adversary ~max_rounds ~stop () =
        let n = Array.length states in
        match P.plane with
        | Some spec
          when Faults.Plan.is_none ctx.Ctx.faults
               && n > 0
               && spec.Runner_broadcast.width states.(0) > 0 ->
            run_plane
              (module P)
              spec
              ~spans:(spans_for ~n ~shards ~boundary_bug)
              ~ctx ?init_prev ?target_progress ~states ~adversary ~max_rounds
              ~stop ()
        | Some _ | None ->
            Runner_broadcast.run
              (module P)
              ~ctx ?init_prev ?target_progress ~states ~adversary ~max_rounds
              ~stop ()
    end

    module Unicast = struct
      let run p ?ctx ?init_prev ?target_progress ~states ~adversary
          ~max_rounds ~stop () =
        Runner_unicast.run_sharded p
          ~spans:(spans_for ~n:(Array.length states) ~shards ~boundary_bug)
          ?ctx ?init_prev ?target_progress ~states ~adversary ~max_rounds
          ~stop ()
    end
  end in
  (module E : Engine_sig.ENGINE)

let engine ?shards () = make ?shards ()
let default_engine = make ()
let name = kernel_name

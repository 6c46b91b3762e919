(* Hierarchical profiling spans.

   One [state] is one lane: a flat growable array of span records plus
   a stack of open-span indices.  Parent links are array indices, so a
   whole profile is three flat allocations plus one record per span —
   no tree rebuilding on the hot path.  Worker lanes ([worker]) share
   the creator's epoch and are absorbed back after [Domain.join], so a
   parallel sweep's profile reads as one timeline with one lane per
   domain.

   The [Null] constructor is the zero-cost default: every entry point
   matches on it first, and callers hoist [not (is_null prof)] out of
   their loops, mirroring the [Sink.null] discipline. *)

type span = {
  parent : int;  (* index into the lane's span array; -1 for a root *)
  name : string;
  cat : string;
  start_us : float;  (* relative to the lane's epoch *)
  mutable dur_us : float;  (* -1.0 while the span is open *)
  alloc0 : float;  (* allocated words at entry *)
  mutable alloc_words : float;
  mutable counters : (string * float) list;
}

(* Array.make filler; allocated per grow so no mutable record lives at
   the top level (each lane's arrays are single-domain anyway, but the
   domain-safety audit rightly has no way to see that). *)
let dummy () =
  {
    parent = -1;
    name = "";
    cat = "";
    start_us = 0.;
    dur_us = 0.;
    alloc0 = 0.;
    alloc_words = 0.;
    counters = [];
  }

type state = {
  epoch : float;  (* gettimeofday at creation of the root profiler *)
  limit : int;  (* max spans per lane; excess is counted, not stored *)
  tid : int;
  lane : string;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (* open spans, innermost first; -1 = dropped *)
  mutable dropped : int;
  mutable absorbed : state list;  (* joined worker lanes, absorb order *)
}

type t = Null | Active of state

let null = Null
let is_null = function Null -> true | Active _ -> false
let default_limit = 500_000

let create ?(limit = default_limit) ?(lane = "main") () =
  Active
    {
      epoch = Unix.gettimeofday ();
      limit;
      tid = 1;
      lane;
      spans = [||];
      len = 0;
      stack = [];
      dropped = 0;
      absorbed = [];
    }

let worker t ~tid ~lane =
  match t with
  | Null -> Null
  | Active st ->
      Active
        {
          epoch = st.epoch;
          limit = st.limit;
          tid;
          lane;
          spans = [||];
          len = 0;
          stack = [];
          dropped = 0;
          absorbed = [];
        }

let absorb t ~from =
  match (t, from) with
  | Active st, Active w -> st.absorbed <- st.absorbed @ (w :: w.absorbed)
  | (Null | Active _), (Null | Active _) -> ()

(* {2 The hot path} *)

let now_us st = (Unix.gettimeofday () -. st.epoch) *. 1e6

let alloc_words_now () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let ensure_capacity st =
  if st.len >= Array.length st.spans then begin
    let cap = max 64 (2 * Array.length st.spans) in
    let spans = Array.make cap (dummy ()) in
    Array.blit st.spans 0 spans 0 st.len;
    st.spans <- spans
  end

(* Innermost open span that was actually recorded (skipping dropped
   sentinels); -1 when none. *)
let rec first_real = function
  | [] -> -1
  | i :: tl -> if i >= 0 then i else first_real tl

let enter t ?(cat = "span") name =
  match t with
  | Null -> ()
  | Active st ->
      if st.len >= st.limit then begin
        st.dropped <- st.dropped + 1;
        (* Push a sentinel so the matching [leave] stays paired. *)
        st.stack <- -1 :: st.stack
      end
      else begin
        ensure_capacity st;
        let idx = st.len in
        st.spans.(idx) <-
          {
            parent = first_real st.stack;
            name;
            cat;
            start_us = now_us st;
            dur_us = -1.;
            alloc0 = alloc_words_now ();
            alloc_words = 0.;
            counters = [];
          };
        st.len <- idx + 1;
        st.stack <- idx :: st.stack
      end

let leave t =
  match t with
  | Null -> ()
  | Active st -> (
      match st.stack with
      | [] -> ()  (* unmatched leave: tolerated, like an empty pop *)
      | i :: tl ->
          st.stack <- tl;
          if i >= 0 then begin
            let sp = st.spans.(i) in
            sp.dur_us <- Float.max 0. (now_us st -. sp.start_us);
            sp.alloc_words <- alloc_words_now () -. sp.alloc0
          end)

let with_span t ?cat name f =
  match t with
  | Null -> f ()
  | Active _ ->
      enter t ?cat name;
      Fun.protect ~finally:(fun () -> leave t) f

let add_counter t name v =
  match t with
  | Null -> ()
  | Active st -> (
      match first_real st.stack with
      | -1 -> ()
      | i ->
          let sp = st.spans.(i) in
          sp.counters <-
            (match List.assoc_opt name sp.counters with
            | Some old ->
                (name, old +. v) :: List.remove_assoc name sp.counters
            | None -> (name, v) :: sp.counters))

(* {2 Introspection} *)

let lanes_of st = st :: st.absorbed

let span_count = function
  | Null -> 0
  | Active st -> List.fold_left (fun acc l -> acc + l.len) 0 (lanes_of st)

let dropped = function
  | Null -> 0
  | Active st -> List.fold_left (fun acc l -> acc + l.dropped) 0 (lanes_of st)

(* {2 Exporters} *)

(* Close any span still open (export can race a run aborted mid-round,
   and the root span is usually still open when the CLI exports). *)
let close_open st =
  let now = now_us st in
  List.iter
    (fun i ->
      if i >= 0 then begin
        let sp = st.spans.(i) in
        if sp.dur_us < 0. then begin
          sp.dur_us <- Float.max 0. (now -. sp.start_us);
          sp.alloc_words <- alloc_words_now () -. sp.alloc0
        end
      end)
    st.stack

let to_chrome_json t =
  match t with
  | Null -> Json.Obj [ ("traceEvents", Json.List []) ]
  | Active st ->
      let lanes = lanes_of st in
      List.iter close_open lanes;
      let events = ref [] in
      let push ev = events := ev :: !events in
      List.iter
        (fun lane ->
          push
            (Json.Obj
               [
                 ("name", Json.String "thread_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int 1);
                 ("tid", Json.Int lane.tid);
                 ("args", Json.Obj [ ("name", Json.String lane.lane) ]);
               ]);
          for i = 0 to lane.len - 1 do
            let sp = lane.spans.(i) in
            let args =
              ("alloc_words", Json.Float sp.alloc_words)
              :: List.rev_map (fun (k, v) -> (k, Json.Float v)) sp.counters
            in
            push
              (Json.Obj
                 [
                   ("name", Json.String sp.name);
                   ("cat", Json.String sp.cat);
                   ("ph", Json.String "X");
                   ("ts", Json.Float sp.start_us);
                   ("dur", Json.Float (Float.max 0. sp.dur_us));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int lane.tid);
                   ("args", Json.Obj args);
                 ])
          done)
        lanes;
      Json.Obj
        [
          ("traceEvents", Json.List (List.rev !events));
          ("displayTimeUnit", Json.String "ms");
          ( "otherData",
            Json.Obj
              [
                ("spans", Json.Int (span_count t));
                ("dropped", Json.Int (dropped t));
              ] );
        ]

let to_folded t =
  match t with
  | Null -> ""
  | Active st ->
      let lanes = lanes_of st in
      List.iter close_open lanes;
      let agg = Hashtbl.create 256 in
      List.iter
        (fun lane ->
          let child_dur = Array.make (max 1 lane.len) 0. in
          for i = 0 to lane.len - 1 do
            let sp = lane.spans.(i) in
            if sp.parent >= 0 && sp.dur_us > 0. then
              child_dur.(sp.parent) <- child_dur.(sp.parent) +. sp.dur_us
          done;
          let rec path i =
            let sp = lane.spans.(i) in
            if sp.parent = -1 then lane.lane ^ ";" ^ sp.name
            else path sp.parent ^ ";" ^ sp.name
          in
          for i = 0 to lane.len - 1 do
            let sp = lane.spans.(i) in
            if sp.dur_us > 0. then begin
              let self = int_of_float (sp.dur_us -. child_dur.(i)) in
              if self > 0 then begin
                let p = path i in
                let old =
                  Option.value (Hashtbl.find_opt agg p) ~default:0
                in
                Hashtbl.replace agg p (old + self)
              end
            end
          done)
        lanes;
      let lines = Hashtbl.fold (fun p us acc -> (p, us) :: acc) agg [] in
      let lines =
        List.sort (fun (a, _) (b, _) -> String.compare a b) lines
      in
      let buf = Buffer.create 4096 in
      List.iter
        (fun (p, us) ->
          Buffer.add_string buf p;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int us);
          Buffer.add_char buf '\n')
        lines;
      Buffer.contents buf

type format = Chrome | Folded

let format_of_path path =
  if Filename.check_suffix path ".folded" || Filename.check_suffix path ".txt"
  then Folded
  else Chrome

let write t oc = function
  | Chrome -> Json.to_channel oc (to_chrome_json t)
  | Folded -> output_string oc (to_folded t)

(* {2 Flat timing} *)

let now_s () = Unix.gettimeofday ()
let elapsed_s t0 = Float.max 0. (now_s () -. t0)

let time f =
  let t0 = now_s () in
  let result = f () in
  (result, elapsed_s t0)

let observe_span ?metrics ~name f =
  let t0 = now_s () in
  Fun.protect
    ~finally:(fun () ->
      match metrics with
      | Some m -> Metrics.observe m name (elapsed_s t0)
      | None -> ())
    f

(* Clock, sample statistics, process memory and the result line shared
   by every workload. *)

let now = Unix.gettimeofday

let ms_since t0 = (now () -. t0) *. 1000.

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Median of a non-empty sample; 0 for an empty one (a layer the
   workload does not exercise). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Peak resident set size (VmHWM) of [pid], or of this process, in MiB. *)
let vmhwm_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Words allocated since program start (minor + major - promoted). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Median duration of [f] in seconds.  Each sample starts from a
   compacted heap, as a fresh process would, and repeats [f] until it
   has run for at least [min_sample_s], so set-ups that take
   microseconds are timed over many calls rather than one. *)
let median_call_s ~samples ~min_sample_s f =
  let one () =
    Gc.compact ();
    let t0 = now () in
    let calls = ref 0 in
    while
      f ();
      incr calls;
      now () -. t0 < min_sample_s
    do
      ()
    done;
    (now () -. t0) /. float_of_int !calls
  in
  median (List.init samples (fun _ -> one ()))

let summary name xs =
  Printf.sprintf "%s: %d samples, min %.3f, median %.3f, p90 %.3f, max %.3f"
    name (List.length xs)
    (List.fold_left Float.min infinity xs)
    (median xs) (percentile 0.9 xs)
    (List.fold_left Float.max neg_infinity xs)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Sample lists keyed by metric name, reduced to medians at the end. *)
module Samples = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) name v =
    Hashtbl.replace t name
      (v :: Option.value (Hashtbl.find_opt t name) ~default:[])

  let median (t : t) name =
    median (Option.value (Hashtbl.find_opt t name) ~default:[])
end

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** printed above the table, not in the JSON *)
}

(* The human-readable table, then the one-line JSON result, which must
   be the last line on stdout. *)
let print_result ~workload { attempted; failed; metrics; notes } =
  List.iter print_endline notes;
  Printf.printf "workload %s: %d job(s) attempted, %d failed\n" workload
    attempted failed;
  List.iter
    (fun m -> Printf.printf "  %-28s %16.6f %s\n" m.name m.value m.unit_)
    metrics;
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (failed = 0));
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Obs.Json.Obj
                     [
                       ("value", Obs.Json.Float m.value);
                       ("unit", Obs.Json.String m.unit_);
                     ] ))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json);
  flush stdout

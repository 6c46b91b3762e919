open Dynet.Ops

type header = {
  version : int;
  n : int;
  seed : int option;
  provenance : string;
}

type delta = { round : int; add : (int * int) list; del : (int * int) list }
type t = { header : header; deltas : delta array }

let version = 1
let schema_name = Printf.sprintf "dynspread-trace/v%d" version
let rounds t = Array.length t.deltas

let make ?seed ?(provenance = "unknown") ~n deltas =
  { header = { version; n; seed; provenance }; deltas = Array.of_list deltas }

(* Canonical delta between consecutive round graphs: a merge walk over
   their sorted keys, from the top down so both pair lists come out
   ascending (key order) without a reversal. *)
let delta_of_graphs ~round ~prev ~cur =
  let n = Dynet.Graph.n cur in
  if Dynet.Graph.n prev <> n then
    invalid_arg "Trace_io.delta_of_graphs: node counts differ";
  let a = Dynet.Graph.edges prev and b = Dynet.Graph.edges cur in
  let pair key = (key / n, key mod n) in
  let add = ref [] and del = ref [] in
  let i = ref (Array.length a - 1) and j = ref (Array.length b - 1) in
  while !i >= 0 || !j >= 0 do
    if !j < 0 || (!i >= 0 && a.(!i) > b.(!j)) then begin
      del := pair a.(!i) :: !del;
      decr i
    end
    else if !i < 0 || b.(!j) > a.(!i) then begin
      add := pair b.(!j) :: !add;
      decr j
    end
    else begin
      decr i;
      decr j
    end
  done;
  { round; add = !add; del = !del }

let of_graphs ?seed ?(provenance = "unknown") ~n graphs =
  let prev = ref (Dynet.Graph.empty ~n) in
  let deltas =
    List.mapi
      (fun i g ->
        if Dynet.Graph.n g <> n then
          invalid_arg
            (Printf.sprintf
               "Trace_io.of_graphs: round %d has %d nodes, expected %d"
               (i + 1) (Dynet.Graph.n g) n);
        let d = delta_of_graphs ~round:(i + 1) ~prev:!prev ~cur:g in
        prev := g;
        d)
      graphs
  in
  make ?seed ~provenance ~n deltas

(* {2 Encoding} *)

let json_of_pairs ps =
  Obs.Json.List
    (List.map (fun (u, v) -> Obs.Json.List [ Obs.Json.Int u; Obs.Json.Int v ]) ps)

(* The header's [rounds] field is advisory (readers recount), but
   emitting the true value keeps files self-describing. *)
let header_to_json h ~rounds =
  Obs.Json.Obj
    (("schema", Obs.Json.String schema_name)
     :: ("n", Obs.Json.Int h.n)
     :: (match h.seed with
        | None -> []
        | Some s -> [ ("seed", Obs.Json.Int s) ])
    @ [ ("provenance", Obs.Json.String h.provenance);
        ("rounds", Obs.Json.Int rounds) ])

let delta_to_json d =
  Obs.Json.Obj
    [
      ("round", Obs.Json.Int d.round);
      ("add", json_of_pairs d.add);
      ("del", json_of_pairs d.del);
    ]

let to_buffer buf t =
  Obs.Json.to_buffer buf (header_to_json t.header ~rounds:(rounds t));
  Buffer.add_char buf '\n';
  Array.iter
    (fun d ->
      Obs.Json.to_buffer buf (delta_to_json d);
      Buffer.add_char buf '\n')
    t.deltas

let to_string t =
  let buf = Buffer.create 4096 in
  to_buffer buf t;
  Buffer.contents buf

let write oc t = output_string oc (to_string t)

(* {2 Decoding} *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e
let errf fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let member_int ~line name j =
  match Obs.Json.member name j with
  | Some v -> (
      match Obs.Json.to_int v with
      | Some i -> Ok i
      | None -> errf "line %d: field %S is not an integer" line name)
  | None -> errf "line %d: missing field %S" line name

let member_string ~line name j =
  match Obs.Json.member name j with
  | Some (Obs.Json.String s) -> Ok s
  | Some _ -> errf "line %d: field %S is not a string" line name
  | None -> errf "line %d: missing field %S" line name

let pairs_of_json ~line name j =
  match Obs.Json.member name j with
  | None -> errf "line %d: missing field %S" line name
  | Some (Obs.Json.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Obs.Json.List [ Obs.Json.Int u; Obs.Json.Int v ] :: rest ->
            go ((u, v) :: acc) rest
        | _ :: _ ->
            errf "line %d: field %S must be a list of [u, v] integer pairs"
              line name
      in
      go [] items
  | Some _ -> errf "line %d: field %S is not a list" line name

let header_of_json ~line j =
  let* schema = member_string ~line "schema" j in
  if not (String.equal schema schema_name) then
    errf "line %d: schema is %S, this reader expects %S" line schema
      schema_name
  else
    let* n = member_int ~line "n" j in
    if n < 2 then errf "line %d: n = %d, need at least 2 nodes" line n
    else
      let* seed =
        match Obs.Json.member "seed" j with
        | None | Some Obs.Json.Null -> Ok None
        | Some v -> (
            match Obs.Json.to_int v with
            | Some s -> Ok (Some s)
            | None -> errf "line %d: field \"seed\" is not an integer" line)
      in
      let* provenance = member_string ~line "provenance" j in
      Ok { version; n; seed; provenance }

let delta_of_json ~line ~expect_round j =
  let* round = member_int ~line "round" j in
  if round <> expect_round then
    errf "line %d: round %d out of order (expected %d: rounds are \
          contiguous from 1)"
      line round expect_round
  else
    let* add = pairs_of_json ~line "add" j in
    let* del = pairs_of_json ~line "del" j in
    Ok { round; add; del }

let of_string content =
  let lines = String.split_on_char '\n' content in
  (* Keep 1-based line numbers; drop blank lines (the trailing newline
     yields one) but keep counting them. *)
  let numbered =
    List.mapi (fun i l -> (i + 1, String.trim l)) lines
    |> List.filter (fun (_, l) -> not (String.equal l ""))
  in
  match numbered with
  | [] -> Error "line 1: empty trace file (expected a header line)"
  | (hline, htext) :: rest ->
      let* hjson =
        match Obs.Json.of_string htext with
        | Ok j -> Ok j
        | Error e -> errf "line %d: %s" hline e
      in
      let* header = header_of_json ~line:hline hjson in
      let rec go acc expect = function
        | [] -> Ok (List.rev acc)
        | (line, text) :: rest ->
            let* j =
              match Obs.Json.of_string text with
              | Ok j -> Ok j
              | Error e -> errf "line %d: %s" line e
            in
            let* d = delta_of_json ~line ~expect_round:expect j in
            go (d :: acc) (expect + 1) rest
      in
      let* deltas = go [] 1 rest in
      Ok { header; deltas = Array.of_list deltas }

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let load path =
  let* content = read_file path in
  match of_string content with
  | Ok t -> Ok t
  | Error e -> errf "%s: %s" path e

let save path t =
  match open_out_bin path with
  | exception Sys_error msg -> Error msg
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          write oc t;
          Ok ())

(* {2 Replay / validation} *)

let check_pair ~n ~round (u, v) =
  if u < 0 || v < 0 || u >= n || v >= n then
    invalid_arg
      (Printf.sprintf "trace round %d: endpoint out of range in (%d, %d)"
         round u v);
  if u = v then
    invalid_arg (Printf.sprintf "trace round %d: self-loop on %d" round u)

(* Index of [key] in the ascending array [keys], or -1. *)
let find keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length keys && keys.(!lo) = key then !lo else -1

(* The packed keys of [pairs] as a strictly ascending array, checked in
   list order exactly as applying the pairs one at a time would check
   them: the first pair that is out of range, a self-loop, repeats an
   earlier pair's edge, or fails [ok] raises ([error] for the last
   two).  The pairs of a validated trace are already ascending, so the
   Edge_table does not sort them. *)
let checked_keys ~n ~round ~ok ~error pairs =
  let table = Dynet.Edge_table.create ~n ~size_hint:(List.length pairs) () in
  List.iter
    (fun (u, v) ->
      if u >= 0 && v >= 0 && u < n && v < n && u <> v then
        Dynet.Edge_table.add_pair table u v)
    pairs;
  let keys = Dynet.Edge_table.sorted_keys table in
  let seen = Array.make (Array.length keys) false in
  List.iter
    (fun (u, v) ->
      check_pair ~n ~round (u, v);
      let slot = find keys (Dynet.Edge_table.key ~n u v) in
      if seen.(slot) || not (ok keys.(slot)) then error (u, v);
      seen.(slot) <- true)
    pairs;
  keys

let next_graph ~round prev d =
  match (d.add, d.del) with
  | [], [] -> prev
  | _ ->
      let n = Dynet.Graph.n prev and pk = Dynet.Graph.edges prev in
      let adds =
        checked_keys ~n ~round d.add
          ~ok:(fun k -> find pk k < 0)
          ~error:(fun (u, v) ->
            invalid_arg
              (Printf.sprintf "trace round %d: adding present edge (%d, %d)"
                 round u v))
      in
      let dels =
        checked_keys ~n ~round d.del
          ~ok:(fun k -> find pk k >= 0 || find adds k >= 0)
          ~error:(fun (u, v) ->
            invalid_arg
              (Printf.sprintf "trace round %d: deleting absent edge (%d, %d)"
                 round u v))
      in
      (* The dels all lie in the union of the previous keys and the
         (disjoint) adds. *)
      let union =
        Dynet.Edge_table.merge_keys pk (Array.length pk) adds
          (Array.length adds)
      in
      let out = Array.make (Array.length union - Array.length dels) 0 in
      let next_del = ref 0 and m = ref 0 in
      Array.iter
        (fun key ->
          if !next_del < Array.length dels && dels.(!next_del) = key then
            incr next_del
          else begin
            out.(!m) <- key;
            incr m
          end)
        union;
      Dynet.Graph.make ~n out

let fold_graphs t ~init ~f =
  let g = ref (Dynet.Graph.empty ~n:t.header.n) in
  let acc = ref init in
  Array.iteri
    (fun i d ->
      let round = i + 1 in
      g := next_graph ~round !g d;
      acc := f !acc ~round !g)
    t.deltas;
  !acc

type stats = {
  stat_rounds : int;
  stat_tc : int;
  stat_max_edges : int;
  first_disconnected : int option;
}

let canonical_sorted ps =
  let rec go prev = function
    | [] -> true
    | (u, v) :: rest ->
        u < v
        && (match prev with
           | None -> true
           | Some (pu, pv) -> pu < u || (pu = u && pv < v))
        && go (Some (u, v)) rest
  in
  go None ps

let validate t =
  let check_pairs ~round name ps =
    if canonical_sorted ps then Ok ()
    else
      errf
        "round %d: %s pairs must be canonical (u < v), strictly sorted, \
         duplicate-free"
        round name
  in
  let rec check_deltas i =
    if i >= Array.length t.deltas then Ok ()
    else
      let d = t.deltas.(i) in
      let* () = check_pairs ~round:d.round "add" d.add in
      let* () = check_pairs ~round:d.round "del" d.del in
      check_deltas (i + 1)
  in
  let* () = check_deltas 0 in
  match
    fold_graphs t
      ~init:{ stat_rounds = 0; stat_tc = 0; stat_max_edges = 0;
              first_disconnected = None }
      ~f:(fun acc ~round g ->
        {
          stat_rounds = round;
          stat_tc = acc.stat_tc + List.length t.deltas.(round - 1).add;
          stat_max_edges = max acc.stat_max_edges (Dynet.Graph.edge_count g);
          first_disconnected =
            (match acc.first_disconnected with
            | Some _ as d -> d
            | None -> if Dynet.Graph.is_connected g then None else Some round);
        })
  with
  | stats -> Ok stats
  | exception Invalid_argument msg -> Error msg

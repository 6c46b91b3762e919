open Dynet.Ops

type header = {
  version : int;
  n : int;
  seed : int option;
  provenance : string;
}

type delta = { add : int array; del : int array }
type t = { header : header; deltas : delta array }

let version = 1
let schema_name = Printf.sprintf "dynspread-trace/v%d" version
let rounds t = Array.length t.deltas

let make ?seed ?(provenance = "unknown") ~n deltas =
  { header = { version; n; seed; provenance }; deltas = Array.of_list deltas }

(* Canonical delta between consecutive round graphs: one merge walk
   over their sorted keys, into arrays sized by [Graph.delta_counts]
   (which refuses graphs whose node counts differ). *)
let delta_of_graphs ~prev ~cur =
  let inserted, removed = Dynet.Graph.delta_counts ~prev ~cur in
  let a = Dynet.Graph.edges prev and b = Dynet.Graph.edges cur in
  let add = Array.make inserted 0 and del = Array.make removed 0 in
  let i = ref 0 and j = ref 0 and na = ref 0 and nd = ref 0 in
  while !na < inserted || !nd < removed do
    if !j >= Array.length b || (!i < Array.length a && a.(!i) < b.(!j))
    then begin
      del.(!nd) <- a.(!i);
      incr nd;
      incr i
    end
    else if !i >= Array.length a || b.(!j) < a.(!i) then begin
      add.(!na) <- b.(!j);
      incr na;
      incr j
    end
    else begin
      incr i;
      incr j
    end
  done;
  { add; del }

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
        let d = delta_of_graphs ~prev:!prev ~cur:g in
        prev := g;
        d)
      graphs
  in
  make ?seed ~provenance ~n deltas

(* {2 Encoding} *)

let json_of_keys ~n keys =
  Obs.Json.List
    (Array.fold_right
       (fun key acc ->
         Obs.Json.List [ Obs.Json.Int (key / n); Obs.Json.Int (key mod n) ]
         :: acc)
       keys [])

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

let delta_to_json ~n ~round d =
  Obs.Json.Obj
    [
      ("round", Obs.Json.Int round);
      ("add", json_of_keys ~n d.add);
      ("del", json_of_keys ~n d.del);
    ]

let to_buffer buf t =
  Obs.Json.to_buffer buf (header_to_json t.header ~rounds:(rounds t));
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i d ->
      Obs.Json.to_buffer buf (delta_to_json ~n:t.header.n ~round:(i + 1) d);
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

(* A field's [[u, v], ...] pairs as packed keys, each pair checked as
   it is read: canonical and in range ([0 <= u < v < n]), and above
   the pair before it, so the keys come out strictly ascending. *)
let keys_of_json ~n ~line name j =
  match Obs.Json.member name j with
  | None -> errf "line %d: missing field %S" line name
  | Some (Obs.Json.List items) ->
      let keys = Array.make (List.length items) 0 in
      let rec go i = function
        | [] -> Ok keys
        | Obs.Json.List [ Obs.Json.Int u; Obs.Json.Int v ] :: rest ->
            if u < 0 || u >= v || v >= n then
              errf "line %d: field %S has [%d, %d], need 0 <= u < v < n = %d"
                line name u v n
            else
              let key = (u * n) + v in
              if i > 0 && key <= keys.(i - 1) then
                errf
                  "line %d: field %S has [%d, %d] after [%d, %d]: pairs must \
                   be strictly ascending"
                  line name u v
                  (keys.(i - 1) / n)
                  (keys.(i - 1) mod n)
              else begin
                keys.(i) <- key;
                go (i + 1) rest
              end
        | _ :: _ ->
            errf "line %d: field %S must be a list of [u, v] integer pairs"
              line name
      in
      go 0 items
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

let delta_of_json ~n ~line ~expect_round j =
  let* round = member_int ~line "round" j in
  if round <> expect_round then
    errf "line %d: round %d out of order (expected %d: rounds are \
          contiguous from 1)"
      line round expect_round
  else
    let* add = keys_of_json ~n ~line "add" j in
    let* del = keys_of_json ~n ~line "del" j in
    Ok { add; del }

(* The first non-blank line at or after byte [pos], whose 1-based
   number is [line] or more: its number, its trimmed text and the byte
   after it. *)
let rec next_line content ~pos ~line =
  if pos >= String.length content then None
  else
    let stop =
      Option.value
        (String.index_from_opt content pos '\n')
        ~default:(String.length content)
    in
    let text = String.trim (String.sub content pos (stop - pos)) in
    if String.equal text "" then
      next_line content ~pos:(stop + 1) ~line:(line + 1)
    else Some (line, text, stop + 1)

let json_of_line ~line text =
  match Obs.Json.of_string text with
  | Ok j -> Ok j
  | Error e -> errf "line %d: %s" line e

let of_string content =
  match next_line content ~pos:0 ~line:1 with
  | None -> Error "line 1: empty trace file (expected a header line)"
  | Some (hline, htext, pos) ->
      let* hjson = json_of_line ~line:hline htext in
      let* header = header_of_json ~line:hline hjson in
      let rec go acc ~round ~pos ~line =
        match next_line content ~pos ~line with
        | None -> Ok (List.rev acc)
        | Some (line, text, pos) ->
            let* j = json_of_line ~line text in
            let* d = delta_of_json ~n:header.n ~line ~expect_round:round j in
            go (d :: acc) ~round:(round + 1) ~pos ~line:(line + 1)
      in
      let* deltas = go [] ~round:1 ~pos ~line:(hline + 1) in
      Ok { header; deltas = Array.of_list deltas }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | content -> (
      match of_string content with
      | Ok t -> Ok t
      | Error e -> errf "%s: %s" path e)

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

let next_graph ~round prev d =
  if Array.length d.add = 0 && Array.length d.del = 0 then prev
  else begin
    let n = Dynet.Graph.n prev and pk = Dynet.Graph.edges prev in
    let violation what key =
      raise
        (Engine.Engine_error.Adversary_violation
           (Printf.sprintf "trace round %d: %s edge (%d, %d)" round what
              (key / n) (key mod n)))
    in
    (* Merge the adds into the previous keys. *)
    let lp = Array.length pk and la = Array.length d.add in
    let keys = Array.make (lp + la) 0 in
    let i = ref 0 and m = ref 0 in
    Array.iter
      (fun key ->
        while !i < lp && pk.(!i) < key do
          keys.(!m) <- pk.(!i);
          incr m;
          incr i
        done;
        if !i < lp && pk.(!i) = key then violation "adding present" key;
        keys.(!m) <- key;
        incr m)
      d.add;
    Array.blit pk !i keys !m (lp - !i);
    (* Drop the dels, compacting in place. *)
    let ld = Array.length d.del in
    let i = ref 0 and m = ref 0 in
    Array.iter
      (fun key ->
        while !i < lp + la && keys.(!i) < key do
          keys.(!m) <- keys.(!i);
          incr m;
          incr i
        done;
        if !i >= lp + la || keys.(!i) <> key then
          violation "deleting absent" key;
        incr i)
      d.del;
    Array.blit keys !i keys !m (lp + la - !i);
    Dynet.Graph.make ~n
      (if ld = 0 then keys else Array.sub keys 0 (lp + la - ld))
  end

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

let validate t =
  match
    fold_graphs t
      ~init:{ stat_rounds = 0; stat_tc = 0; stat_max_edges = 0;
              first_disconnected = None }
      ~f:(fun acc ~round g ->
        {
          stat_rounds = round;
          stat_tc = acc.stat_tc + Array.length t.deltas.(round - 1).add;
          stat_max_edges = max acc.stat_max_edges (Dynet.Graph.edge_count g);
          first_disconnected =
            (match acc.first_disconnected with
            | Some _ as d -> d
            | None -> if Dynet.Graph.is_connected g then None else Some round);
        })
  with
  | stats -> Ok stats
  | exception Engine.Engine_error.Adversary_violation msg -> Error msg

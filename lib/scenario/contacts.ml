open Dynet.Ops

type stats = {
  contacts : int;
  self_loops : int;
  duplicates : int;
  out_of_order : int;
  nodes : int;
  imported_rounds : int;
  empty_buckets : int;
  repaired_rounds : int;
  repaired_edges : int;
}

let errf fmt = Printf.ksprintf (fun msg -> Error msg) fmt
let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* One parsed data row: timestamp and the two (string) endpoint
   labels.  Self-loops are filtered by the caller so the row type
   stays total. *)
let parse_row ~line fields =
  match fields with
  | [ t; u; v ] | [ t; u; v; _ ] -> (
      let* ts =
        match float_of_string_opt t with
        | Some ts when Float.is_finite ts -> Ok ts
        | Some _ | None ->
            errf "line %d: timestamp %S is not a finite number" line t
      in
      let* () =
        match fields with
        | [ _; _; _; dur ] -> (
            match float_of_string_opt dur with
            | Some d when Float.is_finite d && d >= 0. -> Ok ()
            | Some _ | None ->
                errf "line %d: duration %S is not a non-negative number" line
                  dur)
        | _ -> Ok ()
      in
      if String.equal u "" || String.equal v "" then
        errf "line %d: empty node label" line
      else Ok (ts, u, v))
  | _ ->
      errf "line %d: expected t,u,v[,duration], got %d field(s)" line
        (List.length fields)

let parse content =
  let lines = String.split_on_char '\n' content in
  let rec go acc line_no out_of_order self_loops t_max = function
    | [] -> Ok (List.rev acc, out_of_order, self_loops)
    | raw :: rest ->
        let line = String.trim raw in
        if String.equal line "" || Char.equal line.[0] '#'
        then go acc (line_no + 1) out_of_order self_loops t_max rest
        else
          let fields = List.map String.trim (String.split_on_char ',' line) in
          let* (ts, u, v) = parse_row ~line:line_no fields in
          let out_of_order =
            match t_max with
            | Some m when ts < m -> out_of_order + 1
            | Some _ | None -> out_of_order
          in
          let t_max =
            match t_max with
            | Some m -> Some (Float.max m ts)
            | None -> Some ts
          in
          if String.equal u v then
            go acc (line_no + 1) out_of_order (self_loops + 1) t_max rest
          else
            go ((ts, u, v) :: acc) (line_no + 1) out_of_order self_loops t_max
              rest
  in
  go [] 1 0 0 None lines

let import ?(bucket = 20.) ?(repair = true) ?(provenance = "import:inline")
    content =
  if not (Float.is_finite bucket && bucket > 0.) then
    errf "bucket %g is not a positive time-window length" bucket
  else
    let* rows, out_of_order, self_loops = parse content in
    if List.length rows = 0 then
      Error "no usable contacts (every line was blank, a comment, or a \
             self-loop)"
    else begin
      (* Node-ID compaction: labels to dense ints, first-seen order. *)
      let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let intern label =
        match Hashtbl.find_opt ids label with
        | Some i -> i
        | None ->
            let i = Hashtbl.length ids in
            Hashtbl.add ids label i;
            i
      in
      let t_min =
        List.fold_left (fun acc (ts, _, _) -> Float.min acc ts) infinity rows
      in
      (* Bucket index per contact; buckets collect endpoint pairs until
         the node count, which sizes the keys, is known. *)
      let buckets : (int, (int * int) list ref) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun (ts, ul, vl) ->
          let u = intern ul and v = intern vl in
          let b = int_of_float (Float.floor ((ts -. t_min) /. bucket)) in
          match Hashtbl.find_opt buckets b with
          | Some pairs -> pairs := (u, v) :: !pairs
          | None -> Hashtbl.add buckets b (ref [ (u, v) ]))
        rows;
      let n = Hashtbl.length ids in
      if n < 2 then
        errf "only %d distinct node(s): a dynamic network needs at least 2" n
      else begin
        let indexes =
          Hashtbl.fold (fun b _ acc -> b :: acc) buckets []
          |> List.sort compare
        in
        let span =
          match (indexes, List.rev indexes) with
          | first :: _, last :: _ -> last - first + 1
          | _, _ -> 0
        in
        let repaired_rounds = ref 0 and repaired_edges = ref 0 in
        let duplicates = ref 0 in
        let graphs =
          List.map
            (fun b ->
              let pairs = !(Hashtbl.find buckets b) in
              let table = Dynet.Edge_table.create ~n () in
              List.iter (fun (u, v) -> Dynet.Edge_table.add_pair table u v) pairs;
              let g = Dynet.Graph.of_table table in
              duplicates :=
                !duplicates + List.length pairs - Dynet.Graph.edge_count g;
              if repair && not (Dynet.Graph.is_connected g) then begin
                let patch = Dynet.Graph.connect_components g in
                incr repaired_rounds;
                repaired_edges := !repaired_edges + Array.length patch;
                Dynet.Graph.union g (Dynet.Graph.make ~n patch)
              end
              else g)
            indexes
        in
        let trace = Trace_io.of_graphs ~provenance ~n graphs in
        let stats =
          {
            contacts = List.length rows + self_loops;
            self_loops;
            duplicates = !duplicates;
            out_of_order;
            nodes = n;
            imported_rounds = List.length indexes;
            empty_buckets = span - List.length indexes;
            repaired_rounds = !repaired_rounds;
            repaired_edges = !repaired_edges;
          }
        in
        Ok (trace, stats)
      end
    end

let import_file ?bucket ?repair path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let content =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let provenance = "import:" ^ Filename.basename path in
      (match import ?bucket ?repair ~provenance content with
      | Ok _ as ok -> ok
      | Error e -> errf "%s: %s" path e)

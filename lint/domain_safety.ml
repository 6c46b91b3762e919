(* The domain-safety audit.

   Sweep fans experiment points over OCaml 5 domains; a worker closure
   that touches top-level mutable state races with its siblings.  The
   audit over-approximates in every direction so a clean report means
   something:

   1. Roots: any file whose token stream applies [Sweep.map] /
      [Sweep.map_span] holds worker closures, so every module that
      file references (plus the file itself) is a root.
      [Shard_pool.run] / [Shard_pool.create] / [Shard_pool.with_pool]
      call sites root the walk the same way:
      the SoA engine's intra-run shard jobs execute on pool domains
      exactly like Sweep's point closures, so everything they can
      reach joins the closure.  (The jobs' writes into their owned
      node-range slices of planes and staging buffers are the
      sanctioned pattern — per-call state threaded in by the engine,
      invisible to this top-level scan by construction.)
      [Scheduler.create] / [Scheduler.submit] / [Scheduler.shutdown]
      call sites are roots too: the serve daemon's job scheduler runs
      submitted work on its persistent worker domains, so the server,
      its request handlers, and every module a job can reach execute
      off the main domain exactly like Sweep workers.
   2. Reachability: module A depends on module B if B's name appears
      anywhere in A's token stream (constructors inflate this set —
      that is the safe direction).  The worker-reachable set is the
      transitive closure of the roots.
   3. Every reachable module is scanned for top-level mutable state:
      [ref]/[Hashtbl]/[Buffer]/[Queue]/[Stack]/[Bytes] creation,
      array creation or literals, [lazy] (forcing is racy), RNG state,
      and record literals mentioning a field some type in the tree
      declares [mutable].  Bindings under a [fun] are per-call values
      and skipped; [Atomic.t]/[Mutex.t]/[Condition.t] are the
      sanctioned primitives and pass.

   A hit is a violation unless annotated with a checked
   [(* dynlint: domain-safe — <reason> *)] waiver. *)

let sweep_fns = [ "map"; "map_span" ]
let shard_pool_fns = [ "run"; "create"; "with_pool" ]
let scheduler_fns = [ "create"; "submit"; "shutdown" ]

(* {2 Mutable-creation classification} *)

let mutable_creator lid =
  match Rules.flatten lid with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "a ref cell"
  | ("Hashtbl" | "Buffer" | "Queue" | "Stack" | "Bytes" | "Dynarray") :: f :: []
    when List.exists (String.equal f)
           [ "create"; "make"; "copy"; "of_seq"; "of_list"; "init" ] ->
      Some (List.hd (Rules.flatten lid) ^ "." ^ f)
  | [ "Array"; f ]
    when List.exists (String.equal f)
           [ "make"; "init"; "create_float"; "copy"; "of_list"; "make_matrix" ]
    ->
      Some ("Array." ^ f)
  | [ "Random"; "State"; "make" ]
  | [ "Random"; "State"; "make_self_init" ]
  | [ "Random"; "self_init" ]
  | [ "Rng"; "make" ]
  | [ "Dynet"; "Rng"; "make" ] ->
      Some "RNG state"
  (* Observability state: a span profiler's buffer and an Obs.Metrics
     registry are single-domain by contract (worker lanes are created
     with Span.worker inside the worker and absorbed after the join),
     so sharing one across Sweep workers from the top level races. *)
  | [ "Span"; ("create" | "worker") ] | [ "Obs"; "Span"; ("create" | "worker") ]
    ->
      Some "span-profiler lane (per-worker buffers; single-domain)"
  | [ "Metrics"; "create" ] | [ "Obs"; "Metrics"; "create" ] ->
      Some "Obs.Metrics registry (single-domain by design)"
  | _ -> None

(* Field names declared [mutable] by any type in the scanned tree. *)
let mutable_fields files =
  let fields = Hashtbl.create 32 in
  let iter =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun self td ->
          (match td.ptype_kind with
          | Ptype_record labels ->
              List.iter
                (fun (l : Parsetree.label_declaration) ->
                  match l.pld_mutable with
                  | Mutable -> Hashtbl.replace fields l.pld_name.txt ()
                  | Immutable -> ())
                labels
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration self td);
    }
  in
  List.iter
    (fun (src : Source_file.t) ->
      match src.parsed with
      | Source_file.Structure str -> iter.structure iter str
      | Source_file.Signature sg -> iter.signature iter sg
      | Source_file.Syntax_error _ -> ())
    files;
  fields

(* {2 Scanning one module's top-level bindings} *)

(* Walk an expression bound at top level and report every
   mutable-state creation not delayed behind a [fun]. *)
let scan_binding ~mut_fields ~add expr =
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ ->
              () (* created per call, not shared *)
          | Pexp_lazy _ ->
              add e.pexp_loc
                "top-level lazy (forcing from two domains races)"
          | Pexp_array _ ->
              add e.pexp_loc "top-level array literal (arrays are mutable)";
              Ast_iterator.default_iterator.expr self e
          | Pexp_record (fields, _)
            when List.exists
                   (fun ((lid : Longident.t Location.loc), _) ->
                     match List.rev (Rules.flatten lid.txt) with
                     | f :: _ -> Hashtbl.mem mut_fields f
                     | [] -> false)
                   fields ->
              add e.pexp_loc "top-level record with mutable fields";
              Ast_iterator.default_iterator.expr self e
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
              match mutable_creator txt with
              | Some what ->
                  add e.pexp_loc ("top-level " ^ what);
                  Ast_iterator.default_iterator.expr self e
              | None -> Ast_iterator.default_iterator.expr self e)
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter expr

let scan_module ~mut_fields (src : Source_file.t) =
  let out = ref [] in
  match src.parsed with
  | Source_file.Signature _ | Source_file.Syntax_error _ -> []
  | Source_file.Structure str ->
      let add loc what =
        out :=
          Rules.violation src loc "domain-safety"
            (Printf.sprintf
               "%s in a module reachable from Sweep workers; make it \
                per-call, use Atomic, or waive with (* dynlint: \
                domain-safe \xe2\x80\x94 <reason> *)"
               what)
          :: !out
      in
      let rec scan_items items =
        List.iter
          (fun (item : Parsetree.structure_item) ->
            match item.pstr_desc with
            | Pstr_value (_, bindings) ->
                List.iter
                  (fun (vb : Parsetree.value_binding) ->
                    scan_binding ~mut_fields ~add vb.pvb_expr)
                  bindings
            | Pstr_module
                { pmb_expr = { pmod_desc = Pmod_structure inner; _ }; _ } ->
                scan_items inner
            | Pstr_recmodule mbs ->
                List.iter
                  (fun (mb : Parsetree.module_binding) ->
                    match mb.pmb_expr.pmod_desc with
                    | Pmod_structure inner -> scan_items inner
                    | _ -> ())
                  mbs
            | _ -> ())
          items
      in
      scan_items str;
      List.rev !out

(* {2 Reachability} *)

let check ~(files : Source_file.t list) =
  let ml_files =
    List.filter (fun (s : Source_file.t) -> s.kind = Source_file.Ml) files
  in
  (* Module name -> files defining it (names can repeat across
     libraries, e.g. Stats; reachability keeps them all). *)
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (s : Source_file.t) ->
      Hashtbl.add by_name (Source_file.module_name s.id) s)
    ml_files;
  let roots =
    List.filter
      (fun s ->
        Source_file.calls s ~modname:"Sweep" ~fns:sweep_fns
        || Source_file.calls s ~modname:"Shard_pool" ~fns:shard_pool_fns
        || Source_file.calls s ~modname:"Scheduler" ~fns:scheduler_fns)
      ml_files
  in
  let reachable : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let visit (s : Source_file.t) =
    if not (Hashtbl.mem reachable s.id) then begin
      Hashtbl.replace reachable s.id ();
      Queue.add s queue
    end
  in
  List.iter visit roots;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Hashtbl.iter
      (fun name () -> List.iter visit (Hashtbl.find_all by_name name))
      s.uidents
  done;
  let mut_fields = mutable_fields files in
  let violations =
    List.concat_map
      (fun (s : Source_file.t) ->
        if Hashtbl.mem reachable s.id then scan_module ~mut_fields s else [])
      ml_files
  in
  let reachable_ids =
    Hashtbl.fold (fun id () acc -> id :: acc) reachable []
    |> List.sort String.compare
  in
  (violations, reachable_ids)

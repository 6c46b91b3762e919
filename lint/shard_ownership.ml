(* shard-ownership: writes reachable from [Shard_pool] jobs must stay
   inside state the executing shard owns.

   [Shard_pool.run pool job] executes [job ~shard ~lo ~hi] on every
   worker domain concurrently; the determinism contract (see
   shard_pool.mli) is that a job writes only

     - span-indexed slices of shared arrays/planes — every index is
       (derived from) the [lo]/[hi]/[shard] parameters, a loop over
       them, or sits under a branch whose condition compares against
       them ([if shard_of.(dst) = shard then ...])
     - worker-local state the job itself allocated ([let len = ref 0]
       staging counters, scratch buffers)

   Cross-shard merging belongs in the coordinator between [run] calls,
   which this rule never scans.  The pass finds every [Shard_pool.run]
   call site in scope, resolves its job argument (inline [fun] or a
   hoisted binding via the callgraph), and walks the job body flagging
   any write whose target the analyzer cannot tie to owned state.  A
   job it cannot resolve to syntax is itself a violation — an invisible
   job means an unchecked contract. *)

let rule = "shard-ownership"

(* Allocation heads whose result is worker-local (the job just made
   it, so writing through it is private by construction). *)
let local_creator lid =
  match Callgraph.flatten lid with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> true
  | [ ("Array" | "Bytes" | "Buffer" | "Hashtbl" | "Queue" | "Stack"); f ] ->
      List.exists (String.equal f)
        [ "create"; "make"; "init"; "copy"; "make_matrix"; "create_float" ]
  | _ -> false

(* Function names (last segment) that mutate their first/self argument.
   [a.(i) <- x] desugars to [Array.set a i x], so "set" also covers
   array-assignment syntax; [:=]/[incr]/[decr] cover ref cells. *)
let writer_fns =
  [
    "set"; "unsafe_set"; "fill"; "blit"; "clear"; "unset"; "row_clear";
    "load_row"; "store_word"; "union_row_into"; "push";
    "add"; "replace"; "remove"; "reset"; "transfer"; ":="; "incr"; "decr";
  ]

type result = {
  violations : Rules.violation list;
  jobs : string list;  (* job names/descriptions analyzed, for the report *)
}

let comparison_ops = [ "<"; "<="; ">"; ">="; "="; "<>"; "==" ]

let has_comparison (e : Parsetree.expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e' ->
          (match e'.pexp_desc with
          | Pexp_ident { txt = Longident.Lident op; _ }
            when List.mem op comparison_ops ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e');
    }
  in
  it.expr it e;
  !found

(* Walk a job body.  [owned] is the set of names the shard provably
   owns: the job's parameters, loop variables spanning them, locally
   created mutable state, derived lets, and variables an enclosing
   guard compares against owned state. *)
let scan_job (src : Source_file.t) ~add ~(params : string list)
    (body : Parsetree.expression) =
  let violation loc target =
    add
      (Rules.violation src loc rule
         (Printf.sprintf
            "write through %s inside a Shard_pool job is not provably \
             shard-owned; index with the job's span parameters, stage \
             into job-local state, or waive with (* dynlint: allow \
             shard-ownership \xe2\x80\x94 <reason> *)"
            target))
  in
  let rec go owned (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply _ -> (
        let head, args = Callgraph.flatten_apply e in
        match head.pexp_desc with
        | Pexp_ident { txt; _ } ->
            let seg =
              Callgraph.last_segment
                (String.concat "." (Callgraph.flatten txt))
            in
            if List.mem seg writer_fns then begin
              let ok =
                List.exists
                  (fun (_, a) -> Callgraph.mentions_any a owned)
                  args
              in
              if not ok then violation e.pexp_loc seg
            end;
            List.iter (fun (_, a) -> go owned a) args
        | _ ->
            go owned head;
            List.iter (fun (_, a) -> go owned a) args)
    | Pexp_setfield (obj, _, v) ->
        if not (Callgraph.mentions_any obj owned) then
          violation e.pexp_loc "a mutable record field";
        go owned obj;
        go owned v
    | Pexp_let (_, vbs, cont) ->
        let owned' =
          List.fold_left
            (fun acc (vb : Parsetree.value_binding) ->
              go acc vb.pvb_expr;
              let creates =
                match Callgraph.flatten_apply vb.pvb_expr with
                | { pexp_desc = Pexp_ident { txt; _ }; _ }, _ :: _ ->
                    local_creator txt
                | _ -> false
              in
              (* Worker-local allocations and values derived from owned
                 state extend the owned set to the bound names. *)
              if creates || Callgraph.mentions_any vb.pvb_expr acc then
                Callgraph.pat_vars vb.pvb_pat acc
              else acc)
            owned vbs
        in
        go owned' cont
    | Pexp_for (p, lo, hi, _, fbody) ->
        go owned lo;
        go owned hi;
        let owned' =
          if Callgraph.mentions_any lo owned || Callgraph.mentions_any hi owned
          then Callgraph.pat_vars p owned
          else owned
        in
        go owned' fbody
    | Pexp_ifthenelse (cond, then_, else_) ->
        go owned cond;
        let owned' =
          if has_comparison cond && Callgraph.mentions_any cond owned then
            Callgraph.idents_in cond @ owned
          else owned
        in
        go owned' then_;
        Option.iter (go owned') else_
    | Pexp_while (cond, wbody) ->
        go owned cond;
        let owned' =
          if has_comparison cond && Callgraph.mentions_any cond owned then
            Callgraph.idents_in cond @ owned
          else owned
        in
        go owned' wbody
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        go owned scrut;
        List.iter
          (fun (c : Parsetree.case) ->
            let owned' =
              match c.pc_guard with
              | Some g when has_comparison g && Callgraph.mentions_any g owned
                ->
                  Callgraph.idents_in g @ owned
              | _ -> owned
            in
            (* Destructuring an owned scrutinee passes ownership on. *)
            let owned' =
              if Callgraph.mentions_any scrut owned' then
                Callgraph.pat_vars c.pc_lhs owned'
              else owned'
            in
            Option.iter (go owned') c.pc_guard;
            go owned' c.pc_rhs)
          cases
    | _ ->
        (* Anonymous lambdas are descended with the owned set intact:
           their parameters are NOT owned (an iterator can hand a job
           arbitrary indices), but guards inside still extend it. *)
        Ast_iterator.default_iterator.expr
          {
            Ast_iterator.default_iterator with
            expr = (fun _ e' -> go owned e');
          }
          e
  in
  go params body

let job_params (params : (Asttypes.arg_label * string option) list) =
  List.filter_map (fun (_, n) -> n) params

let check (cg : Callgraph.t) ~(files : Source_file.t list)
    ~(in_scope : string -> bool) : result =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let jobs = ref [] in
  let analyzed = Hashtbl.create 8 in
  let analyze_func (fn : Callgraph.func) =
    let key = Callgraph.vb_key fn.Callgraph.src fn.Callgraph.loc in
    if not (Hashtbl.mem analyzed key) then begin
      Hashtbl.add analyzed key ();
      jobs := fn.Callgraph.qname :: !jobs;
      let params = job_params fn.Callgraph.params in
      match fn.Callgraph.cases with
      | Some cs ->
          List.iter
            (fun (c : Parsetree.case) ->
              scan_job fn.Callgraph.src ~add ~params c.Parsetree.pc_rhs)
            cs
      | None -> scan_job fn.Callgraph.src ~add ~params fn.Callgraph.body
    end
  in
  (* A [Shard_pool.run pool job] application: classify the job. *)
  let handle_run (src : Source_file.t)
      (args : (Asttypes.arg_label * Parsetree.expression) list) =
    let nolabel =
      List.filter_map
        (fun ((l : Asttypes.arg_label), a) ->
          match l with Asttypes.Nolabel -> Some a | _ -> None)
        args
    in
    match nolabel with
    | [ _pool; job ] -> (
        match job.pexp_desc with
        | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
            let params, body, cases = Callgraph.peel_params job [] in
            let names = job_params params in
            jobs :=
              Printf.sprintf "%s:%d:<fun>" src.Source_file.id
                job.pexp_loc.loc_start.pos_lnum
              :: !jobs;
            (match cases with
            | Some cs ->
                List.iter
                  (fun (c : Parsetree.case) ->
                    scan_job src ~add ~params:names c.Parsetree.pc_rhs)
                  cs
            | None -> scan_job src ~add ~params:names body)
        | Pexp_ident { txt; _ } -> (
            match Callgraph.resolve_in cg ~id:src.Source_file.id txt with
            | [] ->
                add
                  (Rules.violation src job.pexp_loc rule
                     (Printf.sprintf
                        "Shard_pool job %s resolves to no function the \
                         analyzer can see; pass a literal fun or a \
                         binding defined in the scanned tree"
                        (String.concat "." (Callgraph.flatten txt))))
            | fns -> List.iter analyze_func fns)
        | _ ->
            add
              (Rules.violation src job.pexp_loc rule
                 "Shard_pool job is not a syntactic function; hoist it \
                  into a named binding so the ownership pass can check \
                  its writes"))
    | _ -> ()  (* partial application: no job to check yet *)
  in
  let is_shard_pool_run (head : Parsetree.expression) =
    match head.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match List.rev (Callgraph.flatten txt) with
        | "run" :: "Shard_pool" :: _ -> true
        | _ -> false)
    | _ -> false
  in
  let scan_for_runs (src : Source_file.t) (e : Parsetree.expression) =
    let rec go (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_apply _ ->
          let head, args = Callgraph.flatten_apply e in
          if is_shard_pool_run head then handle_run src args
      | _ -> ());
      Ast_iterator.default_iterator.expr
        { Ast_iterator.default_iterator with expr = (fun _ e' -> go e') }
        e
    in
    go e
  in
  (* Every function body in scope is walked once for run sites; bodies
     of nested functions appear as their own callgraph nodes, but the
     generic descent here visits them inline too, so guard with a seen
     set on the binding location to avoid duplicate reports. *)
  let seen_files = Hashtbl.create 16 in
  List.iter
    (fun (src : Source_file.t) ->
      if
        src.Source_file.kind = Source_file.Ml
        && in_scope src.Source_file.id
        && not (Hashtbl.mem seen_files src.Source_file.id)
      then begin
        Hashtbl.add seen_files src.Source_file.id ();
        match src.Source_file.parsed with
        | Source_file.Structure str ->
            let rec items str =
              List.iter
                (fun (item : Parsetree.structure_item) ->
                  match item.pstr_desc with
                  | Pstr_value (_, vbs) ->
                      List.iter
                        (fun (vb : Parsetree.value_binding) ->
                          scan_for_runs src vb.pvb_expr)
                        vbs
                  | Pstr_eval (e, _) -> scan_for_runs src e
                  | Pstr_module
                      {
                        pmb_expr = { pmod_desc = Pmod_structure inner; _ };
                        _;
                      } ->
                      items inner
                  | Pstr_recmodule mbs ->
                      List.iter
                        (fun (mb : Parsetree.module_binding) ->
                          match mb.pmb_expr.pmod_desc with
                          | Pmod_structure inner -> items inner
                          | _ -> ())
                        mbs
                  | _ -> ())
                str
            in
            items str
        | Source_file.Signature _ | Source_file.Syntax_error _ -> ()
      end)
    files;
  { violations = List.rev !violations; jobs = List.rev !jobs }

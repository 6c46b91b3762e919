(* The callgraph the cross-function rules share.

   [build] extracts every function binding in the scanned tree — top
   level, nested inside modules, and [let]-bound inside other function
   bodies (the SoA engine's hoisted shard jobs live there) — together
   with the dynlint attributes it carries:

     [@@dynlint.hot]               the function heads a hot path: it and
                                   everything it transitively calls must
                                   not allocate (lint/hot_alloc.ml)
     [@dynlint.alloc_ok "reason"]  waives hot-alloc findings inside the
                                   annotated binding or expression
     [@dynlint.unsafe_ok "reason"] waives unsafe-index findings the same
                                   way (lint/unsafe_index.ml)

   Attribute waivers are claim-checked exactly like the comment form: a
   waiver that covers no finding is a stale-waiver violation, so the
   annotations cannot drift from the code.

   Resolution is name-based and over-approximate in the safe direction,
   like the domain-safety audit: [Lident f] resolves to every function
   named [f] in the same file (innermost scopes included), and
   [M.f] / [Lib.M.f] to every function [f] in any scanned module named
   [M].  Calls into modules outside the tree resolve to nothing and are
   classified by the per-rule external tables instead. *)

type waiver = {
  rule : string;  (* the rule id the attribute waives *)
  reason : string;
  w_id : string;  (* file id carrying the attribute *)
  w_line : int;  (* line of the attribute itself, for stale reports *)
  span_start : int;  (* first line the waiver covers *)
  span_end : int;  (* last line the waiver covers *)
  mutable used : bool;
}

type func = {
  src : Source_file.t;
  name : string;  (* dot-path inside the file: "run_plane.intent_job" *)
  qname : string;  (* Module.name, for diagnostics *)
  loc : Location.t;  (* the binding's location *)
  params : (Asttypes.arg_label * string option) list;  (* leading params *)
  arity : int;  (* required (non-optional) leading parameters *)
  body : Parsetree.expression;  (* expression after the leading params *)
  cases : Parsetree.case list option;  (* [function]-style final param *)
  hot : bool;
}

type t = {
  funcs : func list;
  (* Last name segment -> functions, per file id (local resolution). *)
  by_file : (string * string, func list) Hashtbl.t;
  (* (module name, fn last segment) -> functions (qualified resolution). *)
  by_module : (string, func list) Hashtbl.t;
  waivers : waiver list;
  bad_attrs : (Source_file.t * Location.t * string) list;
  (* Binding locations that became their own [func] nodes: scanners use
     this to stop at a nested definition instead of double-walking it. *)
  nested_vbs : (string * int * int, func) Hashtbl.t;
}

let last_segment name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* {2 Attributes} *)

let attr_payload_string (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let waiver_rule_of_attr = function
  | "dynlint.alloc_ok" -> Some "hot-alloc"
  | "dynlint.unsafe_ok" -> Some "unsafe-index"
  | _ -> None

(* Classify one attribute, covering [span] (the lines of the construct
   it annotates). *)
let scan_attr (src : Source_file.t) ~(span : Location.t) acc
    (attr : Parsetree.attribute) =
  let waivers, bads = acc in
  let name = attr.attr_name.txt in
  let is_dynlint =
    String.length name >= 8 && String.equal (String.sub name 0 8) "dynlint."
  in
  if not is_dynlint then acc
  else
    match waiver_rule_of_attr name with
    | Some rule -> (
        match attr_payload_string attr with
        | Some reason when not (String.equal (String.trim reason) "") ->
            let w =
              {
                rule;
                reason;
                w_id = src.Source_file.id;
                w_line = attr.attr_name.loc.loc_start.pos_lnum;
                span_start = span.loc_start.pos_lnum;
                span_end = span.loc_end.pos_lnum;
                used = false;
              }
            in
            (w :: waivers, bads)
        | Some _ | None ->
            ( waivers,
              ( src,
                attr.attr_name.loc,
                Printf.sprintf "[@%s] needs a non-empty string reason" name )
              :: bads ))
    | None ->
        if String.equal name "dynlint.hot" then
          (* Validity (no payload, binding position) is checked at the
             extraction site; a [dynlint.hot] reaching here hangs on a
             construct the analysis cannot root. *)
          ( waivers,
            ( src,
              attr.attr_name.loc,
              "[@@dynlint.hot] only applies to function bindings" )
            :: bads )
        else
          ( waivers,
            (src, attr.attr_name.loc, Printf.sprintf "unknown dynlint attribute %S" name)
            :: bads )

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* {2 Function extraction} *)

(* Peel the leading parameter chain: [fun]s and [(type a)] newtypes.
   A trailing [function] counts as one final unnamed parameter. *)
let rec peel_params (e : Parsetree.expression) params =
  match e.pexp_desc with
  | Pexp_fun (label, _default, pat, body) ->
      let name =
        match pat.ppat_desc with
        | Ppat_var v -> Some v.txt
        | Ppat_constraint ({ ppat_desc = Ppat_var v; _ }, _) -> Some v.txt
        | _ -> None
      in
      peel_params body ((label, name) :: params)
  | Pexp_newtype (_, body) -> peel_params body params
  | Pexp_function cases ->
      (List.rev ((Asttypes.Nolabel, None) :: params), e, Some cases)
  | _ -> (List.rev params, e, None)

let required_arity params =
  List.length
    (List.filter
       (fun (l, _) ->
         match l with
         | Asttypes.Nolabel | Asttypes.Labelled _ -> true
         | Asttypes.Optional _ -> false)
       params)

let vb_key (src : Source_file.t) (loc : Location.t) =
  (src.Source_file.id, loc.loc_start.pos_lnum, loc.loc_start.pos_cnum)

(* Walk one file, extracting functions (top-level, nested-module, and
   local) and collecting attribute waivers with their coverage spans. *)
let scan_file (src : Source_file.t)
    ~(add_func : func -> unit)
    ~(register_nested : Source_file.t -> Location.t -> func -> unit)
    ~(add_attrs :
       span:Location.t -> Parsetree.attributes -> unit) =
  let modname = Source_file.module_name src.Source_file.id in
  (* Local function bindings inside [scope] (a dot path). *)
  let rec scan_expr ~scope (e : Parsetree.expression) =
    add_attrs ~span:e.pexp_loc e.pexp_attributes;
    match e.pexp_desc with
    | Pexp_let (_, vbs, cont) ->
        List.iter (scan_binding ~scope ~local:true) vbs;
        scan_expr ~scope cont
    | _ ->
        (* Generic traversal: visit every sub-expression. *)
        Ast_iterator.default_iterator.expr
          {
            Ast_iterator.default_iterator with
            expr = (fun _ e' -> scan_expr ~scope e');
          }
          e
  and scan_binding ~scope ~local (vb : Parsetree.value_binding) =
    let hot = has_attr "dynlint.hot" vb.pvb_attributes in
    let name =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var v -> Some v.txt
      | Ppat_constraint ({ ppat_desc = Ppat_var v; _ }, _) -> Some v.txt
      | _ -> None
    in
    let params, body, cases = peel_params vb.pvb_expr [] in
    (* [dynlint.hot] is legitimate exactly on named function bindings;
       everywhere else [scan_attr] reports it as misplaced. *)
    let attrs =
      if hot && name <> None && params <> [] then
        List.filter
          (fun (a : Parsetree.attribute) ->
            not (String.equal a.attr_name.txt "dynlint.hot"))
          vb.pvb_attributes
      else vb.pvb_attributes
    in
    add_attrs ~span:vb.pvb_loc attrs;
    match name with
    | Some n when params <> [] ->
        let path = if String.equal scope "" then n else scope ^ "." ^ n in
        let f =
          {
            src;
            name = path;
            qname = modname ^ "." ^ path;
            loc = vb.pvb_loc;
            params;
            arity = required_arity params;
            body;
            cases;
            hot;
          }
        in
        add_func f;
        if local then register_nested src vb.pvb_loc f;
        (* Descend for deeper nested functions and attributes. *)
        (match cases with
        | Some cs ->
            List.iter
              (fun (c : Parsetree.case) ->
                Option.iter (scan_expr ~scope:path) c.pc_guard;
                scan_expr ~scope:path c.pc_rhs)
              cs
        | None -> scan_expr ~scope:path body)
    | _ ->
        (* Not a named function: still walk the expression for nested
           functions ([let () = ...] blocks) and attributes. *)
        scan_expr ~scope vb.pvb_expr
  and scan_items ~scope items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter (scan_binding ~scope ~local:false) vbs
        | Pstr_module
            {
              pmb_name = { txt = Some m; _ };
              pmb_expr = { pmod_desc = Pmod_structure inner; _ };
              _;
            } ->
            let scope' =
              if String.equal scope "" then m else scope ^ "." ^ m
            in
            scan_items ~scope:scope' inner
        | Pstr_recmodule mbs ->
            List.iter
              (fun (mb : Parsetree.module_binding) ->
                match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
                | Some m, Pmod_structure inner ->
                    let scope' =
                      if String.equal scope "" then m else scope ^ "." ^ m
                    in
                    scan_items ~scope:scope' inner
                | _ -> ())
              mbs
        | _ -> ())
      items
  in
  match src.Source_file.parsed with
  | Source_file.Structure str -> scan_items ~scope:"" str
  | Source_file.Signature _ | Source_file.Syntax_error _ -> ()

let build (files : Source_file.t list) =
  let funcs = ref [] in
  let waivers = ref [] in
  let bad_attrs = ref [] in
  let nested_vbs = Hashtbl.create 64 in
  let ml_files =
    List.filter (fun (s : Source_file.t) -> s.Source_file.kind = Source_file.Ml) files
  in
  List.iter
    (fun (src : Source_file.t) ->
      scan_file src
        ~add_func:(fun f -> funcs := f :: !funcs)
        ~register_nested:(fun src loc f ->
          Hashtbl.replace nested_vbs (vb_key src loc) f)
        ~add_attrs:(fun ~span attrs ->
          List.iter
            (fun attr ->
              let ws, bads = scan_attr src ~span (!waivers, !bad_attrs) attr in
              waivers := ws;
              bad_attrs := bads)
            attrs))
    ml_files;
  let funcs = List.rev !funcs in
  let by_file = Hashtbl.create 256 in
  let by_module = Hashtbl.create 256 in
  List.iter
    (fun f ->
      let seg = last_segment f.name in
      let fkey = (f.src.Source_file.id, seg) in
      Hashtbl.replace by_file fkey
        (f :: Option.value (Hashtbl.find_opt by_file fkey) ~default:[]);
      (* Register under the file's module name and, for functions inside
         nested modules, under the nested module's own name (so
         [Vec.xor] resolves from outside gf2.ml too). *)
      let modnames =
        let file_mod = Source_file.module_name f.src.Source_file.id in
        match String.rindex_opt f.name '.' with
        | None -> [ file_mod ]
        | Some i ->
            let prefix = String.sub f.name 0 i in
            let encl = last_segment prefix in
            (* Only module-scoped prefixes start uppercase; a lowercase
               prefix is an enclosing *function*, resolvable only
               file-locally. *)
            if
              String.length encl > 0
              && Char.uppercase_ascii encl.[0] = encl.[0]
              && Char.lowercase_ascii encl.[0] <> encl.[0]
            then [ file_mod; encl ]
            else [ file_mod ]
      in
      List.iter
        (fun m ->
          let mkey = m ^ "." ^ seg in
          Hashtbl.replace by_module mkey
            (f :: Option.value (Hashtbl.find_opt by_module mkey) ~default:[]))
        modnames)
    funcs;
  {
    funcs;
    by_file;
    by_module;
    waivers = List.rev !waivers;
    bad_attrs = List.rev !bad_attrs;
    nested_vbs;
  }

(* {2 Resolution} *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> flatten p @ [ s ]
  | Longident.Lapply (p, _) -> flatten p

(* Resolve a reference made from file [id] to candidate functions in
   the graph.  [Lident f]: same-file functions named [f].  [M.f] (any
   qualification depth): functions [f] in any module named [M]. *)
let resolve_in t ~id lid =
  match flatten lid with
  | [] -> []
  | [ f ] -> Option.value (Hashtbl.find_opt t.by_file (id, f)) ~default:[]
  | path ->
      let f = List.nth path (List.length path - 1) in
      let m = List.nth path (List.length path - 2) in
      Option.value (Hashtbl.find_opt t.by_module (m ^ "." ^ f)) ~default:[]

let resolve t ~(from : func) lid = resolve_in t ~id:from.src.Source_file.id lid

let nested_func t (src : Source_file.t) (vb : Parsetree.value_binding) =
  Hashtbl.find_opt t.nested_vbs (vb_key src vb.pvb_loc)

(* {2 Shared walking helpers} *)

(* Value names a pattern binds. *)
let rec pat_vars (p : Parsetree.pattern) acc =
  match p.ppat_desc with
  | Ppat_var v -> v.txt :: acc
  | Ppat_alias (p, v) -> pat_vars p (v.txt :: acc)
  | Ppat_tuple ps | Ppat_array ps ->
      List.fold_left (fun a p -> pat_vars p a) acc ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
      pat_vars p acc
  | Ppat_record (fields, _) ->
      List.fold_left (fun a (_, p) -> pat_vars p a) acc fields
  | Ppat_or (a, b) -> pat_vars b (pat_vars a acc)
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_exception p
  | Ppat_open (_, p) ->
      pat_vars p acc
  | _ -> acc

(* Flatten an application to (head, all args), looking through curried
   application chains and the [@@] / [|>] pipe operators, so arity and
   head classification see the call the compiler sees. *)
let rec flatten_apply (e : Parsetree.expression) :
    Parsetree.expression * (Asttypes.arg_label * Parsetree.expression) list =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match (f.pexp_desc, args) with
      | ( Pexp_ident { txt = Longident.Lident "@@"; _ },
          [ (Asttypes.Nolabel, g); (Asttypes.Nolabel, x) ] ) ->
          let h, a = flatten_apply g in
          (h, a @ [ (Asttypes.Nolabel, x) ])
      | ( Pexp_ident { txt = Longident.Lident "|>"; _ },
          [ (Asttypes.Nolabel, x); (Asttypes.Nolabel, g) ] ) ->
          let h, a = flatten_apply g in
          (h, a @ [ (Asttypes.Nolabel, x) ])
      | _ ->
          let h, a = flatten_apply f in
          (h, a @ args))
  | _ -> (e, [])

(* All unqualified lowercase idents mentioned anywhere in [e]. *)
let idents_in (e : Parsetree.expression) =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e' ->
          (match e'.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } ->
              if not (List.mem x !out) then out := x :: !out
          | _ -> ());
          Ast_iterator.default_iterator.expr self e');
    }
  in
  it.expr it e;
  !out

let mentions_any e names =
  List.exists (fun x -> List.mem x names) (idents_in e)

let hot_roots t = List.filter (fun f -> f.hot) t.funcs

(* Walk a function's body, stopping at nested bindings that are their
   own nodes.  [f] receives every expression exactly once. *)
let iter_body t (fn : func) (visit : Parsetree.expression -> unit) =
  let rec go (e : Parsetree.expression) =
    visit e;
    match e.pexp_desc with
    | Pexp_let (_, vbs, cont) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match nested_func t fn.src vb with
            | Some _ -> ()  (* a separate node; don't double-walk *)
            | None -> go vb.pvb_expr)
          vbs;
        go cont
    | _ ->
        Ast_iterator.default_iterator.expr
          { Ast_iterator.default_iterator with expr = (fun _ e' -> go e') }
          e
  in
  match fn.cases with
  | Some cs ->
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter go c.pc_guard;
          go c.pc_rhs)
        cs
  | None -> go fn.body

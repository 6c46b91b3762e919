open Dynet.Ops

type algorithm = Flooding | Single_source | Multi_source | Oblivious_rw

type env =
  | Trace of { path : string }
  | Static of { p : float }
  | Tree_rotator
  | Rewiring of { extra : int option; rate : float }
  | Edge_markovian of { p_up : float option; p_down : float }
  | Fresh_random of { p : float }
  | Request_cutter of { cut_prob : float }
  | Lower_bound

type faults = {
  loss : float;
  dup : float;
  crash : float;
  restart : float;
  max_delay : int;
  fault_seed : int option;
}

type t = {
  name : string;
  algorithm : algorithm;
  env : env;
  sigma : int;
  n : int option;
  k : int;
  s : int;
  seed : int;
  repeats : int;
  faults : faults option;
  max_rounds : int option;
}

let schema_name = "dynspread-scenario/v1"

let algorithms =
  [
    ("flooding", Flooding);
    ("single-source", Single_source);
    ("multi-source", Multi_source);
    ("oblivious-rw", Oblivious_rw);
  ]

let algorithm_name = function
  | Flooding -> "flooding"
  | Single_source -> "single-source"
  | Multi_source -> "multi-source"
  | Oblivious_rw -> "oblivious-rw"

let env_family = function
  | Trace _ -> "trace"
  | Static _ -> "static"
  | Tree_rotator -> "tree-rotator"
  | Rewiring _ -> "rewiring"
  | Edge_markovian _ -> "edge-markovian"
  | Fresh_random _ -> "fresh-random"
  | Request_cutter _ -> "request-cutter"
  | Lower_bound -> "lower-bound"

(* Each generated family at its defaults: the values a JSON env that
   omits a parameter gets, and the CLI's [--env] choices. *)
let default_envs =
  [
    Static { p = 0.15 };
    Tree_rotator;
    Rewiring { extra = None; rate = 0.25 };
    Edge_markovian { p_up = None; p_down = 0.3 };
    Fresh_random { p = 0.25 };
    Request_cutter { cut_prob = 0.7 };
    Lower_bound;
  ]

let env_families = "trace" :: List.map env_family default_envs

let sigma_error env ~sigma =
  let refuse why =
    if sigma <= 1 then None
    else Some ("sigma only applies to the generated oblivious families; " ^ why)
  in
  match env with
  | Request_cutter _ -> refuse "the request-cutter is adaptive"
  | Lower_bound -> refuse "the lower-bound adversary is adaptive"
  | Fresh_random _ -> refuse "fresh-random draws every round afresh"
  | Trace _ -> refuse "a trace replays its recorded rounds as they are"
  | Static _ | Tree_rotator | Rewiring _ | Edge_markovian _ -> None

(* {2 Error-accumulating field readers}

   Each reader appends to a shared error list; validation reports every
   problem at once, not just the first. *)

type ctx = { mutable errors : string list }

let err ctx fmt = Printf.ksprintf (fun m -> ctx.errors <- m :: ctx.errors) fmt

let check_unknown ctx ~where ~allowed = function
  | Obs.Json.Obj fields ->
      List.iter
        (fun (key, _) ->
          if not (List.exists (String.equal key) allowed) then
            err ctx "%s: unknown field %S (allowed: %s)" where key
              (String.concat ", " allowed))
        fields
  | _ -> ()

let get_string ctx ~where name default j =
  match Obs.Json.member name j with
  | None -> default
  | Some (Obs.Json.String s) -> Some s
  | Some _ ->
      err ctx "%s: field %S must be a string" where name;
      default

let get_int ctx ~where name default j =
  match Obs.Json.member name j with
  | None -> default
  | Some v -> (
      match Obs.Json.to_int v with
      | Some i -> Some i
      | None ->
          err ctx "%s: field %S must be an integer" where name;
          default)

let get_float ctx ~where name default j =
  match Obs.Json.member name j with
  | None -> default
  | Some v -> (
      match Obs.Json.to_float_opt v with
      | Some f -> Some f
      | None ->
          err ctx "%s: field %S must be a number" where name;
          default)

let check_prob ctx ~where name v =
  if not (Float.is_finite v && v >= 0. && v <= 1.) then
    err ctx "%s: field %S = %g is not a probability in [0, 1]" where name v

let check_min ctx ~where name v ~min_v =
  if v < min_v then err ctx "%s: field %S = %d must be >= %d" where name v min_v

(* {2 Sub-objects} *)

let env_of_json ctx j =
  let where = "env" in
  match Obs.Json.member "env" j with
  | None ->
      err ctx "missing field \"env\" (an object with a \"family\")";
      Tree_rotator
  | Some (Obs.Json.Obj _ as e) -> (
      let family =
        Option.value
          (get_string ctx ~where "family" None e)
          ~default:"(missing)"
      in
      let allowed fields =
        check_unknown ctx ~where ~allowed:("family" :: fields) e
      in
      let prob name default =
        Option.value (get_float ctx ~where name None e) ~default
      in
      if String.equal family "trace" then begin
        allowed [ "path" ];
        match get_string ctx ~where "path" None e with
        | Some path -> Trace { path }
        | None ->
            err ctx "env: family \"trace\" needs a non-empty \"path\"";
            Tree_rotator
      end
      else
        match
          List.find_opt
            (fun d -> String.equal (env_family d) family)
            default_envs
        with
        | None ->
            err ctx "env: unknown family %S (one of: %s)" family
              (String.concat ", " env_families);
            Tree_rotator
        | Some (Static { p }) ->
            allowed [ "p" ];
            Static { p = prob "p" p }
        | Some (Rewiring { rate; _ }) ->
            allowed [ "extra"; "rate" ];
            Rewiring
              {
                extra = get_int ctx ~where "extra" None e;
                rate = prob "rate" rate;
              }
        | Some (Edge_markovian { p_down; _ }) ->
            allowed [ "p_up"; "p_down" ];
            Edge_markovian
              {
                p_up = get_float ctx ~where "p_up" None e;
                p_down = prob "p_down" p_down;
              }
        | Some (Fresh_random { p }) ->
            allowed [ "p" ];
            Fresh_random { p = prob "p" p }
        | Some (Request_cutter { cut_prob }) ->
            allowed [ "cut_prob" ];
            Request_cutter { cut_prob = prob "cut_prob" cut_prob }
        | Some ((Tree_rotator | Lower_bound | Trace _) as d) ->
            allowed [];
            d)
  | Some _ ->
      err ctx "field \"env\" must be an object with a \"family\"";
      Tree_rotator

let faults_of_json ctx j =
  let where = "faults" in
  match Obs.Json.member "faults" j with
  | None -> None
  | Some (Obs.Json.Obj _ as f) ->
      check_unknown ctx ~where
        ~allowed:[ "loss"; "dup"; "crash"; "restart"; "max_delay"; "seed" ]
        f;
      let prob name default =
        Option.value (get_float ctx ~where name None f) ~default
      in
      Some
        {
          loss = prob "loss" 0.;
          dup = prob "dup" 0.;
          crash = prob "crash" 0.;
          restart = prob "restart" 0.25;
          max_delay =
            Option.value (get_int ctx ~where "max_delay" None f) ~default:0;
          fault_seed = get_int ctx ~where "seed" None f;
        }
  | Some _ ->
      err ctx "field \"faults\" must be an object";
      None

let faults_active = function
  | None -> false
  | Some f ->
      f.loss > 0. || f.dup > 0. || f.crash > 0. || f.max_delay > 0

(* {2 Rules on the finished record} *)

(* The range of every field, whichever front door built the record. *)
let check_fields ctx t =
  let spec_min name v ~min_v = check_min ctx ~where:"spec" name v ~min_v in
  if String.equal t.name "" then
    err ctx "missing or empty field \"name\" (labels the run reports)";
  spec_min "sigma" t.sigma ~min_v:1;
  Option.iter (fun v -> spec_min "n" v ~min_v:2) t.n;
  spec_min "k" t.k ~min_v:1;
  spec_min "s" t.s ~min_v:1;
  spec_min "seed" t.seed ~min_v:0;
  spec_min "repeats" t.repeats ~min_v:1;
  Option.iter (fun v -> spec_min "max_rounds" v ~min_v:1) t.max_rounds;
  (let prob = check_prob ctx ~where:"env" in
   match t.env with
   | Trace { path } ->
       if String.equal path "" then
         err ctx "env: family \"trace\" needs a non-empty \"path\""
   | Static { p } | Fresh_random { p } -> prob "p" p
   | Tree_rotator | Lower_bound -> ()
   | Rewiring { extra; rate } ->
       Option.iter
         (fun x -> check_min ctx ~where:"env" "extra" x ~min_v:0)
         extra;
       prob "rate" rate
   | Edge_markovian { p_up; p_down } ->
       Option.iter (prob "p_up") p_up;
       prob "p_down" p_down
   | Request_cutter { cut_prob } -> prob "cut_prob" cut_prob);
  Option.iter
    (fun f ->
      let where = "faults" in
      List.iter
        (fun (name, v) -> check_prob ctx ~where name v)
        [ ("loss", f.loss); ("dup", f.dup); ("crash", f.crash);
          ("restart", f.restart) ];
      check_min ctx ~where "max_delay" f.max_delay ~min_v:0;
      Option.iter
        (fun s -> check_min ctx ~where "seed" s ~min_v:0)
        f.fault_seed)
    t.faults

let check_combinations ctx t =
  (match (t.env, t.n) with
  | Trace _, _ | _, Some _ -> ()
  | _, None ->
      err ctx
        "missing field \"n\": required unless env is a trace (traces carry \
         their node count)");
  (match (t.algorithm, t.env) with
  | (Flooding | Oblivious_rw), Request_cutter _ ->
      err ctx
        "algorithm %S cannot face the request-cutter (an adaptive unicast \
         adversary): use single-source or multi-source"
        (algorithm_name t.algorithm)
  | (Single_source | Multi_source | Oblivious_rw), Lower_bound ->
      err ctx
        "algorithm %S cannot face the lower-bound adversary (the Section-2 \
         strongly adaptive broadcast adversary): use flooding"
        (algorithm_name t.algorithm)
  | _, _ -> ());
  Option.iter (err ctx "%s") (sigma_error t.env ~sigma:t.sigma);
  (match (t.algorithm, t.max_rounds) with
  | Oblivious_rw, Some _ ->
      err ctx
        "oblivious-rw does not take \"max_rounds\" (Algorithm 2 caps each \
         phase itself); drop the field"
  | _, _ -> ());
  match (faults_active t.faults, t.algorithm, t.env) with
  | true, Oblivious_rw, _ ->
      err ctx
        "oblivious-rw does not take a fault plan yet; drop the \"faults\" \
         fields"
  | true, _, Lower_bound ->
      err ctx
        "the lower-bound adversary models worst-case scheduling, not faults; \
         drop the \"faults\" fields"
  | _, _, _ -> ()

let check_record ctx t =
  check_fields ctx t;
  check_combinations ctx t

let validate t =
  let ctx = { errors = [] } in
  check_record ctx t;
  match ctx.errors with [] -> Ok t | errors -> Error (List.rev errors)

(* {2 Top level} *)

let top_fields =
  [ "schema"; "name"; "algorithm"; "env"; "sigma"; "n"; "k"; "s"; "seed";
    "repeats"; "faults"; "max_rounds" ]

let of_json j =
  let ctx = { errors = [] } in
  let where = "spec" in
  (match j with
  | Obs.Json.Obj _ -> ()
  | _ -> err ctx "a scenario spec must be a JSON object");
  check_unknown ctx ~where ~allowed:top_fields j;
  (match get_string ctx ~where "schema" None j with
  | Some s when String.equal s schema_name -> ()
  | Some s -> err ctx "schema is %S, expected %S" s schema_name
  | None -> err ctx "missing field \"schema\" (expected %S)" schema_name);
  let name =
    match get_string ctx ~where "name" None j with
    | Some s -> s
    | None ->
        err ctx "missing or empty field \"name\" (labels the run reports)";
        "unnamed"
  in
  let algorithm =
    match get_string ctx ~where "algorithm" None j with
    | Some s -> (
        match List.assoc_opt s algorithms with
        | Some a -> a
        | None ->
            err ctx "unknown algorithm %S (one of: %s)" s
              (String.concat ", " (List.map fst algorithms));
            Flooding)
    | None ->
        err ctx "missing field \"algorithm\" (one of: %s)"
          (String.concat ", " (List.map fst algorithms));
        Flooding
  in
  let env = env_of_json ctx j in
  let int_or name default =
    Option.value (get_int ctx ~where name None j) ~default
  in
  let sigma = int_or "sigma" 1 in
  let n = get_int ctx ~where "n" None j in
  let k =
    match get_int ctx ~where "k" None j with
    | Some k -> k
    | None ->
        err ctx "missing field \"k\" (token count, >= 1)";
        1
  in
  let s = int_or "s" 1 in
  let seed = int_or "seed" 42 in
  let repeats = int_or "repeats" 1 in
  let faults = faults_of_json ctx j in
  let max_rounds = get_int ctx ~where "max_rounds" None j in
  let t =
    { name; algorithm; env; sigma; n; k; s; seed; repeats; faults; max_rounds }
  in
  check_record ctx t;
  match ctx.errors with [] -> Ok t | errors -> Error (List.rev errors)

let of_string content =
  match Obs.Json.of_string content with
  | Ok j -> of_json j
  | Error e -> Error [ "invalid JSON: " ^ e ]

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error [ msg ]
  | content -> (
      match of_string content with
      | Ok _ as ok -> ok
      | Error errs -> Error (List.map (fun e -> path ^ ": " ^ e) errs))

(* {2 Rendering} *)

let env_to_json env =
  let family = ("family", Obs.Json.String (env_family env)) in
  Obs.Json.Obj
    (match env with
    | Trace { path } -> [ family; ("path", Obs.Json.String path) ]
    | Static { p } -> [ family; ("p", Obs.Json.Float p) ]
    | Tree_rotator -> [ family ]
    | Rewiring { extra; rate } ->
        (family
         :: (match extra with
            | None -> []
            | Some x -> [ ("extra", Obs.Json.Int x) ]))
        @ [ ("rate", Obs.Json.Float rate) ]
    | Edge_markovian { p_up; p_down } ->
        (family
         :: (match p_up with
            | None -> []
            | Some p -> [ ("p_up", Obs.Json.Float p) ]))
        @ [ ("p_down", Obs.Json.Float p_down) ]
    | Fresh_random { p } -> [ family; ("p", Obs.Json.Float p) ]
    | Request_cutter { cut_prob } ->
        [ family; ("cut_prob", Obs.Json.Float cut_prob) ]
    | Lower_bound -> [ family ])

let to_json t =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.String schema_name);
       ("name", Obs.Json.String t.name);
       ("algorithm", Obs.Json.String (algorithm_name t.algorithm));
       ("env", env_to_json t.env);
     ]
    @ (if t.sigma = 1 then [] else [ ("sigma", Obs.Json.Int t.sigma) ])
    @ opt "n" (fun v -> Obs.Json.Int v) t.n
    @ [ ("k", Obs.Json.Int t.k) ]
    @ (if t.s = 1 then [] else [ ("s", Obs.Json.Int t.s) ])
    @ [ ("seed", Obs.Json.Int t.seed) ]
    @ (if t.repeats = 1 then [] else [ ("repeats", Obs.Json.Int t.repeats) ])
    @ (match t.faults with
      | None -> []
      | Some f ->
          [
            ( "faults",
              Obs.Json.Obj
                ([
                   ("loss", Obs.Json.Float f.loss);
                   ("dup", Obs.Json.Float f.dup);
                   ("crash", Obs.Json.Float f.crash);
                   ("restart", Obs.Json.Float f.restart);
                   ("max_delay", Obs.Json.Int f.max_delay);
                 ]
                @ opt "seed" (fun v -> Obs.Json.Int v) f.fault_seed) );
          ])
    @ opt "max_rounds" (fun v -> Obs.Json.Int v) t.max_rounds)

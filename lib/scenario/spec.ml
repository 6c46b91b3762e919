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

let env_families =
  [ "trace"; "static"; "tree-rotator"; "rewiring"; "edge-markovian";
    "fresh-random"; "request-cutter" ]

let sigma_error env ~sigma =
  let refuse why =
    if sigma <= 1 then None
    else Some ("sigma only applies to the generated oblivious families; " ^ why)
  in
  match env with
  | Request_cutter _ -> refuse "the request-cutter is adaptive"
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
      let prob name default =
        let v = Option.value (get_float ctx ~where name None e) ~default in
        check_prob ctx ~where name v;
        v
      in
      let base = [ "family" ] in
      match family with
      | "trace" -> (
          check_unknown ctx ~where ~allowed:(base @ [ "path" ]) e;
          match get_string ctx ~where "path" None e with
          | Some path when not (String.equal path "") -> Trace { path }
          | Some _ | None ->
              err ctx "env: family \"trace\" needs a non-empty \"path\"";
              Tree_rotator)
      | "static" ->
          check_unknown ctx ~where ~allowed:(base @ [ "p" ]) e;
          Static { p = prob "p" 0.15 }
      | "tree-rotator" ->
          check_unknown ctx ~where ~allowed:base e;
          Tree_rotator
      | "rewiring" ->
          check_unknown ctx ~where ~allowed:(base @ [ "extra"; "rate" ]) e;
          let extra = get_int ctx ~where "extra" None e in
          Option.iter
            (fun x -> check_min ctx ~where "extra" x ~min_v:0)
            extra;
          Rewiring { extra; rate = prob "rate" 0.25 }
      | "edge-markovian" ->
          check_unknown ctx ~where ~allowed:(base @ [ "p_up"; "p_down" ]) e;
          let p_up = get_float ctx ~where "p_up" None e in
          Option.iter (check_prob ctx ~where "p_up") p_up;
          Edge_markovian { p_up; p_down = prob "p_down" 0.3 }
      | "fresh-random" ->
          check_unknown ctx ~where ~allowed:(base @ [ "p" ]) e;
          Fresh_random { p = prob "p" 0.25 }
      | "request-cutter" ->
          check_unknown ctx ~where ~allowed:(base @ [ "cut_prob" ]) e;
          Request_cutter { cut_prob = prob "cut_prob" 0.7 }
      | other ->
          err ctx "env: unknown family %S (one of: %s)" other
            (String.concat ", " env_families);
          Tree_rotator)
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
        let v = Option.value (get_float ctx ~where name None f) ~default in
        check_prob ctx ~where name v;
        v
      in
      let max_delay = Option.value (get_int ctx ~where "max_delay" None f) ~default:0 in
      check_min ctx ~where "max_delay" max_delay ~min_v:0;
      let fault_seed = get_int ctx ~where "seed" None f in
      Option.iter (fun s -> check_min ctx ~where "seed" s ~min_v:0) fault_seed;
      Some
        {
          loss = prob "loss" 0.;
          dup = prob "dup" 0.;
          crash = prob "crash" 0.;
          restart = prob "restart" 0.25;
          max_delay;
          fault_seed;
        }
  | Some _ ->
      err ctx "field \"faults\" must be an object";
      None

let faults_active = function
  | None -> false
  | Some f ->
      f.loss > 0. || f.dup > 0. || f.crash > 0. || f.max_delay > 0

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
    | Some s when not (String.equal s "") -> s
    | Some _ | None ->
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
  let sigma = Option.value (get_int ctx ~where "sigma" None j) ~default:1 in
  check_min ctx ~where "sigma" sigma ~min_v:1;
  let n = get_int ctx ~where "n" None j in
  Option.iter (fun v -> check_min ctx ~where "n" v ~min_v:2) n;
  let k =
    match get_int ctx ~where "k" None j with
    | Some k -> k
    | None ->
        err ctx "missing field \"k\" (token count, >= 1)";
        1
  in
  check_min ctx ~where "k" k ~min_v:1;
  let s = Option.value (get_int ctx ~where "s" None j) ~default:1 in
  check_min ctx ~where "s" s ~min_v:1;
  let seed = Option.value (get_int ctx ~where "seed" None j) ~default:42 in
  check_min ctx ~where "seed" seed ~min_v:0;
  let repeats = Option.value (get_int ctx ~where "repeats" None j) ~default:1 in
  check_min ctx ~where "repeats" repeats ~min_v:1;
  let faults = faults_of_json ctx j in
  let max_rounds = get_int ctx ~where "max_rounds" None j in
  Option.iter (fun v -> check_min ctx ~where "max_rounds" v ~min_v:1) max_rounds;
  (* Cross-field consistency. *)
  (match (env, n) with
  | Trace _, _ -> ()
  | _, Some _ -> ()
  | _, None ->
      err ctx
        "missing field \"n\": required unless env is a trace (traces carry \
         their node count)");
  (match (algorithm, env) with
  | (Flooding | Oblivious_rw), Request_cutter _ ->
      err ctx
        "algorithm %S cannot face the request-cutter (an adaptive unicast \
         adversary): use single-source or multi-source"
        (algorithm_name algorithm)
  | _, _ -> ());
  Option.iter (err ctx "%s") (sigma_error env ~sigma);
  if
    (match algorithm with Oblivious_rw -> true | _ -> false)
    && faults_active faults
  then
    err ctx
      "oblivious-rw does not take a fault plan yet; drop the \"faults\" \
       fields";
  match ctx.errors with
  | [] ->
      Ok
        { name; algorithm; env; sigma; n; k; s; seed; repeats; faults;
          max_rounds }
  | errors -> Error (List.rev errors)

let of_string content =
  match Obs.Json.of_string content with
  | Ok j -> of_json j
  | Error e -> Error [ "invalid JSON: " ^ e ]

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error [ msg ]
  | ic ->
      let content =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match of_string content with
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
        [ family; ("cut_prob", Obs.Json.Float cut_prob) ])

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

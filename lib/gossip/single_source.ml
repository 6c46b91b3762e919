open Dynet.Ops

module IMap = Map.Make (Int)
module Bitset = Dynet.Bitset

type priority = Paper_priority | Reversed_priority | No_priority
type config = { priority : priority; dedup_pending : bool }

let default_config = { priority = Paper_priority; dedup_pending = true }

type state = {
  me : Dynet.Node_id.t;
  config : config;
  source : Dynet.Node_id.t;
  k : int option;  (* learned from the first completeness announcement *)
  known : Token.t IMap.t;  (* by idx — kept for serving requests *)
  kmask : Bitset.t;  (* packed "have idx" bits, capacity = instance k *)
  kcount : int;  (* cached IMap.cardinal known *)
  complete : bool;
  informed : Bitset.t;  (* R_v: whom I told about my completeness *)
  known_complete : Bitset.t;  (* S_v: who told me about theirs *)
  edges : Edge_history.t;
  pending : (Dynet.Node_id.t * int) list;  (* requests sent last round *)
  to_serve : (Dynet.Node_id.t * int) list;  (* requests received last round *)
  requests_sent : int;
}

let is_complete st = st.complete
let known_count st = st.kcount

let all_complete ~k states =
  Array.for_all (fun st -> st.kcount >= k) states

let requests_sent st = st.requests_sent

(* An unchanged row copies no record: most node-rounds of a stable
   graph stop here. *)
let refresh_edges st ~round ~neighbors =
  if Edge_history.same_row st.edges neighbors then st
  else { st with edges = Edge_history.refresh st.edges ~round ~neighbors }

let rec drop_below i = function
  | a :: rest when a < i -> drop_below i rest
  | l -> l

(* Least idx [>= i] below [k], not in [have] and not in [arriving]
   (ascending), or [-1]. *)
let rec next_missing ~have ~k arriving i =
  let i = Bitset.next_clear have i in
  if i >= k then -1
  else
    match drop_below i arriving with
    | a :: rest when a = i -> next_missing ~have ~k rest (i + 1)
    | _ -> i

(* Loops over locals rather than local closures: this runs every
   node-round of an incomplete node, usually to assign nothing, and a
   closure over the loop state would be allocated each time. *)
let request_plan ~priority ~edges ~round ~neighbors ~eligible ~have ~k
    ~arriving =
  let categories =
    ref
      (match priority with
      | Paper_priority -> Edge_history.[ Some New; Some Idle; Some Contributive ]
      | Reversed_priority ->
          Edge_history.[ Some Contributive; Some Idle; Some New ]
      | No_priority -> [ None ])
  in
  let plan = ref [] and next = ref 0 and arriving = ref arriving in
  let d = Array.length neighbors in
  while not (List.is_empty !categories) do
    let only = List.hd !categories in
    categories := List.tl !categories;
    let i = ref 0 in
    while !i < d do
      let w = neighbors.(!i) in
      if
        Bitset.mem eligible w
        &&
        match only with
        | None -> true
        | Some c ->
            Edge_history.category_equal
              (Edge_history.categorize_at edges ~round !i)
              c
      then begin
        let idx = next_missing ~have ~k !arriving !next in
        if idx < 0 then begin
          (* Indices run out for every later edge too. *)
          categories := [];
          i := d
        end
        else begin
          plan := (w, idx) :: !plan;
          next := idx + 1;
          arriving := drop_below !next !arriving
        end
      end;
      incr i
    done
  done;
  List.rev !plan

(* [to_serve] is answered in neighbour order, first request per asker:
   a stable sort by asker lines it up with the ascending row for one
   merge walk. *)
let complete_send st ~neighbors =
  let k = Option.get st.k in
  let informed = ref st.informed and copied = ref false in
  let serve =
    ref
      (List.stable_sort
         (fun (a, _) (b, _) -> Dynet.Node_id.compare a b)
         st.to_serve)
  in
  let msgs = ref [] in
  for i = 0 to Array.length neighbors - 1 do
    let w = neighbors.(i) in
    if not (Bitset.mem !informed w) then begin
      if not !copied then begin
        informed := Bitset.copy st.informed;
        copied := true
      end;
      Bitset.set !informed w;
      msgs := (w, Payload.Completeness { source = st.source; count = k }) :: !msgs
    end
    else begin
      while match !serve with (u, _) :: _ -> u < w | [] -> false do
        serve := List.tl !serve
      done;
      match !serve with
      | (u, idx) :: _ when u = w ->
          msgs := (w, Payload.Token_msg (IMap.find idx st.known)) :: !msgs
      | _ -> ()
    end
  done;
  let st =
    if !copied || not (List.is_empty st.to_serve && List.is_empty st.pending)
    then
      { st with informed = !informed; to_serve = []; pending = [] }
    else st
  in
  (st, List.rev !msgs)

let incomplete_send st ~round ~neighbors =
  match st.k with
  | None ->
      if List.is_empty st.pending && List.is_empty st.to_serve then (st, [])
      else ({ st with pending = []; to_serve = [] }, [])
  | Some k ->
      (* Tokens requested last round whose edge survived will arrive at
         the end of this round; do not re-request them (Algorithm 1's
         redundancy avoidance — ablatable). *)
      let arriving =
        if (not st.config.dedup_pending) || List.is_empty st.pending then []
        else
          List.filter_map
            (fun (w, idx) ->
              if Edge_history.mem st.edges w then Some idx else None)
            st.pending
      in
      (* Eligible edges lead to known-complete neighbours. *)
      let requests =
        request_plan ~priority:st.config.priority ~edges:st.edges ~round
          ~neighbors ~eligible:st.known_complete ~have:st.kmask ~k ~arriving
      in
      if
        List.is_empty requests && List.is_empty st.pending
        && List.is_empty st.to_serve
      then (st, [])
      else
        let msgs =
          List.map
            (fun (w, idx) -> (w, Payload.Request { source = st.source; idx }))
            requests
        in
        ( {
            st with
            pending = requests;
            to_serve = [];
            requests_sent = st.requests_sent + List.length requests;
          },
          msgs )

let learn st (tok : Token.t) ~from ~k_hint =
  if Bitset.mem st.kmask tok.idx then st
  else begin
    let known = IMap.add tok.idx tok st.known in
    let kmask = Bitset.add tok.idx st.kmask in
    let kcount = st.kcount + 1 in
    Check.bitset_cached ~what:"Single_source: kcount desynced from kmask"
      ~cached:kcount kmask;
    let edges = Edge_history.mark_contributed st.edges from in
    let k = match st.k with Some _ as k -> k | None -> k_hint in
    let complete = match k with Some k -> kcount = k | None -> false in
    { st with known; kmask; kcount; edges; k; complete }
  end

module P = struct
  type nonrec state = state
  type msg = Payload.t

  let classify = Payload.classify

  let send st ~round ~neighbors =
    let st = refresh_edges st ~round ~neighbors in
    if st.complete then complete_send st ~neighbors
    else incomplete_send st ~round ~neighbors

  let receive st ~round:_ ~neighbors:_ ~inbox =
    List.fold_left
      (fun st (u, msg) ->
        match msg with
        | Payload.Completeness { source = _; count } ->
            let st =
              { st with known_complete = Bitset.add u st.known_complete }
            in
            (match st.k with
            | Some k ->
                assert (k = count);
                st
            | None -> { st with k = Some count })
        | Payload.Token_msg tok -> learn st tok ~from:u ~k_hint:None
        | Payload.Request { source = _; idx } ->
            if st.complete then { st with to_serve = (u, idx) :: st.to_serve }
            else st
        | Payload.Walk_msg _ | Payload.Center_announce -> st)
      st inbox

  let progress st = st.kcount
end

let protocol =
  (module P : Engine.Runner_unicast.PROTOCOL
    with type state = state
     and type msg = Payload.t)

let init ?(config = default_config) ~instance () =
  (match Instance.sources instance with
  | [ _ ] -> ()
  | _ -> invalid_arg "Single_source.init: instance must have exactly one source");
  let source = List.hd (Instance.sources instance) in
  let n = Instance.n instance in
  let k = Instance.k instance in
  Array.init n (fun v ->
      let base =
        {
          me = v;
          config;
          source;
          k = None;
          known = IMap.empty;
          kmask = Bitset.create k;
          kcount = 0;
          complete = false;
          informed = Bitset.create n;
          known_complete = Bitset.create n;
          edges = Edge_history.empty;
          pending = [];
          to_serve = [];
          requests_sent = 0;
        }
      in
      if v = source then
        let tokens = Instance.tokens_of instance v in
        let known =
          List.fold_left
            (fun acc (tok : Token.t) -> IMap.add tok.idx tok acc)
            IMap.empty tokens
        in
        let kmask = Bitset.create k in
        List.iter (fun (tok : Token.t) -> Bitset.set kmask tok.idx) tokens;
        {
          base with
          k = Some k;
          known;
          kmask;
          kcount = List.length tokens;
          complete = true;
        }
      else base)

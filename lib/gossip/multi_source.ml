open Dynet.Ops

module IMap = Map.Make (Int)
module NSet = Dynet.Node_id.Set
module NMap = Dynet.Node_id.Map
module Bitset = Dynet.Bitset

(* Everything node v tracks about one discovered source x. *)
type per_source = {
  count : int option;  (* k_x, once learned *)
  known : Token.t IMap.t;  (* x's tokens held, by idx — kept for serving *)
  kmask : Bitset.t;  (* packed "have idx" bits, capacity = instance k *)
  kcount : int;  (* cached IMap.cardinal known *)
  announcers : Bitset.t;  (* S_v(x) *)
}

type source_order = Min_source | Random_source

(* Dense source ranks: the sources are the nodes holding tokens at
   time 0 (every source a node can hear of is one: a token's catalog
   source held it), and a rank is a source's position among them in
   id order, so the minimum rank is the minimum source.  I_v is an
   s-bit set over ranks and R_v an s-slot array.  One table, built by
   [init] and shared by every node, never written afterwards; no
   decision reads it, it only indexes. *)
type ranks = {
  ids : Dynet.Node_id.t array;  (* rank -> source, ascending *)
  rank : int array;  (* node -> rank, -1 for a node holding no token *)
}

type state = {
  me : Dynet.Node_id.t;
  n : int;
  cap_k : int;  (* instance-wide token count: capacity of the kmasks *)
  source_order : source_order;
  ranks : ranks;
  rng : Dynet.Rng.t;
  sources : per_source NMap.t;  (* discovered sources *)
  total_known : int;  (* cached sum of kcount over sources *)
  complete_srcs : Bitset.t;  (* I_v by rank *)
  informed : Bitset.t array;
      (* R_v(x) at x's rank: the neighbours told x is complete here.
         Never written once handed out: a round that announces copies
         the array and each set it adds to. *)
  caught_up : Bitset.t;
      (* neighbours told about every complete source; emptied whenever
         a source turns complete *)
  wanted : NSet.t;  (* incomplete sources with an announcer *)
  edges : Edge_history.t;
  pending : (Dynet.Node_id.t * Dynet.Node_id.t * int) list;
      (* (neighbor asked, source, idx) sent last round *)
  to_serve : (Dynet.Node_id.t * Dynet.Node_id.t * int) list;
      (* (asker, source, idx) received last round *)
  requests_sent : int;
  announcements_sent : int;
}

let fresh_source ~n ~cap_k =
  {
    count = None;
    known = IMap.empty;
    kmask = Bitset.create cap_k;
    kcount = 0;
    announcers = Bitset.create n;
  }

let source_info st x =
  match NMap.find_opt x st.sources with
  | Some ps -> ps
  | None -> fresh_source ~n:st.n ~cap_k:st.cap_k

let known_count st = st.total_known

let complete_wrt st x =
  x >= 0
  && x < st.n
  && Bitset.mem st.complete_srcs st.ranks.rank.(x)

let all_complete ~k states =
  Array.for_all (fun st -> st.total_known >= k) states

let requests_sent st = st.requests_sent
let announcements_sent st = st.announcements_sent

let refresh_edges st ~round ~neighbors =
  if Edge_history.same_row st.edges neighbors then st
  else { st with edges = Edge_history.refresh st.edges ~round ~neighbors }

(* A source turning complete owes every neighbour an announcement
   again, so it empties [caught_up]; it also stops being a request
   target. *)
let turned_complete st x =
  {
    st with
    complete_srcs = Bitset.add st.ranks.rank.(x) st.complete_srcs;
    caught_up = Bitset.create st.n;
    wanted = NSet.remove x st.wanted;
  }

(* The least rank at or after [r] of a complete source [w] was not
   told about, or [s]. *)
let rec untold informed complete w r =
  let r = Bitset.next_set complete r in
  if r < Array.length informed && Bitset.mem informed.(r) w then
    untold informed complete w (r + 1)
  else r

(* Task 1: announce, per neighbor, the minimum own-complete source the
   neighbor has not heard about from us.  A caught-up neighbour costs
   one bit test.  Any other costs a scan of I_v, and either gets an
   announcement or is marked caught up.  A round that announces copies
   [informed] once and each R_v(x) it adds to once. *)
let announce_task st ~neighbors =
  let complete = st.complete_srcs and ids = st.ranks.ids in
  let s = Array.length ids in
  let informed = ref st.informed and fresh = ref None in
  let sent = ref 0 and msgs = ref [] in
  let caught_up = ref st.caught_up and copied = ref false in
  for i = 0 to Array.length neighbors - 1 do
    let w = neighbors.(i) in
    if not (Bitset.mem st.caught_up w) then begin
      let r = untold st.informed complete w 0 in
      if r < s then begin
        let x = ids.(r) in
        let count = Option.get (NMap.find x st.sources).count in
        let fresh_ranks =
          match !fresh with
          | Some f -> f
          | None ->
              let f = Bitset.create s in
              informed := Array.copy st.informed;
              fresh := Some f;
              f
        in
        if not (Bitset.mem fresh_ranks r) then begin
          Bitset.set fresh_ranks r;
          !informed.(r) <- Bitset.copy st.informed.(r)
        end;
        Bitset.set !informed.(r) w;
        incr sent;
        msgs := (w, Payload.Completeness { source = x; count }) :: !msgs
      end;
      if r >= s || untold st.informed complete w (r + 1) >= s then begin
        if not !copied then begin
          caught_up := Bitset.copy st.caught_up;
          copied := true
        end;
        Bitset.set !caught_up w
      end
    end
  done;
  if !sent = 0 && not !copied then (st, [])
  else
    ( {
        st with
        informed = !informed;
        caught_up = !caught_up;
        announcements_sent = st.announcements_sent + !sent;
      },
      List.rev !msgs )

(* Task 2: serve last round's requests, if the asker is still a
   neighbor and we hold the token. *)
let serve_task st =
  match st.to_serve with
  | [] -> (st, [])
  | to_serve ->
      let msgs =
        List.filter_map
          (fun (u, x, idx) ->
            if Edge_history.mem st.edges u then
              match IMap.find_opt idx (NMap.find x st.sources).known with
              | Some tok -> Some (u, Payload.Token_msg tok)
              | None -> None
            else None)
          to_serve
      in
      ({ st with to_serve = [] }, msgs)

(* Task 3: the Single-Source request logic for one incomplete source
   that has announced completeness in our neighborhood — the minimum
   one under the paper's rule, a random one under the ablation. *)
let request_task st ~round ~neighbors =
  let target =
    if NSet.is_empty st.wanted then None
    else
      match st.source_order with
      | Min_source -> Some (NSet.min_elt st.wanted)
      | Random_source ->
          (* Descending, as the candidate list always was. *)
          let xs = NSet.fold (fun x acc -> x :: acc) st.wanted [] in
          Some (Dynet.Rng.pick st.rng (Array.of_list xs))
  in
  match target with
  | None ->
      if List.is_empty st.pending then (st, []) else ({ st with pending = [] }, [])
  | Some x ->
      let ps = NMap.find x st.sources in
      let arriving =
        match st.pending with
        | [] -> []
        | pending ->
            List.filter_map
              (fun (w, x', idx) ->
                if x' = x && Edge_history.mem st.edges w then Some idx
                else None)
              pending
      in
      let plan =
        Single_source.request_plan ~priority:Single_source.Paper_priority
          ~edges:st.edges ~round ~neighbors ~eligible:ps.announcers
          ~have:ps.kmask ~k:(Option.get ps.count) ~arriving
      in
      if List.is_empty plan && List.is_empty st.pending then (st, [])
      else
        let requests = List.map (fun (w, idx) -> (w, x, idx)) plan in
        let msgs =
          List.map
            (fun (w, idx) -> (w, Payload.Request { source = x; idx }))
            plan
        in
        ( {
            st with
            pending = requests;
            requests_sent = st.requests_sent + List.length requests;
          },
          msgs )

let learn st (tok : Token.t) ~from =
  let x = tok.src in
  let ps = source_info st x in
  if Bitset.mem ps.kmask tok.idx then st
  else begin
    let known = IMap.add tok.idx tok ps.known in
    let kmask = Bitset.add tok.idx ps.kmask in
    let kcount = ps.kcount + 1 in
    Check.bitset_cached ~what:"Multi_source: kcount desynced from kmask"
      ~cached:kcount kmask;
    let complete =
      match ps.count with Some c -> kcount = c | None -> false
    in
    let st =
      {
        st with
        sources = NMap.add x { ps with known; kmask; kcount } st.sources;
        total_known = st.total_known + 1;
        edges = Edge_history.mark_contributed st.edges from;
      }
    in
    if complete && not (complete_wrt st x) then turned_complete st x else st
  end

module P = struct
  type nonrec state = state
  type msg = Payload.t

  let classify = Payload.classify

  let send st ~round ~neighbors =
    let st = refresh_edges st ~round ~neighbors in
    let st, announce = announce_task st ~neighbors in
    let st, serve = serve_task st in
    let st, request = request_task st ~round ~neighbors in
    (st, announce @ serve @ request)

  let receive st ~round:_ ~neighbors:_ ~inbox =
    List.fold_left
      (fun st (u, msg) ->
        match msg with
        | Payload.Completeness { source = x; count } ->
            let ps = source_info st x in
            (match ps.count with
            | Some c -> assert (c = count)
            | None -> ());
            let was_complete = complete_wrt st x in
            let complete = was_complete || ps.kcount = count in
            let st =
              {
                st with
                sources =
                  NMap.add x
                    {
                      ps with
                      count = Some count;
                      announcers = Bitset.add u ps.announcers;
                    }
                    st.sources;
                wanted =
                  (if complete then st.wanted else NSet.add x st.wanted);
              }
            in
            if complete && not was_complete then turned_complete st x else st
        | Payload.Token_msg tok -> learn st tok ~from:u
        | Payload.Request { source = x; idx } ->
            (* At most one queued serve per asker: duplicated or delayed
               requests can land two in one inbox, and serving both next
               round would put two tokens on the same edge — a bandwidth
               violation.  Dropped extras are re-requested, the same
               recovery path as a lost request (single-source gets this
               for free from its assoc-by-neighbor serve loop). *)
            if
              complete_wrt st x
              && not (List.exists (fun (u', _, _) -> u' = u) st.to_serve)
            then { st with to_serve = (u, x, idx) :: st.to_serve }
            else st
        | Payload.Walk_msg _ | Payload.Center_announce -> st)
      st inbox

  let progress st = st.total_known
end

let protocol =
  (module P : Engine.Runner_unicast.PROTOCOL
    with type state = state
     and type msg = Payload.t)

let init ?(source_order = Min_source) ?(seed = 0) ~instance () =
  let master = Dynet.Rng.make ~seed in
  let n = Instance.n instance in
  let cap_k = Instance.k instance in
  let ids = Array.of_list (Instance.sources instance) in
  let rank = Array.make n (-1) in
  Array.iteri (fun r x -> rank.(x) <- r) ids;
  let ranks = { ids; rank } and s = Array.length ids in
  let nobody = Bitset.create n in
  Array.init n (fun v ->
      let base =
        {
          me = v;
          n;
          cap_k;
          source_order;
          ranks;
          rng = Dynet.Rng.split master;
          sources = NMap.empty;
          total_known = 0;
          complete_srcs = Bitset.create s;
          informed = Array.make s nobody;
          caught_up = Bitset.create n;
          wanted = NSet.empty;
          edges = Edge_history.empty;
          pending = [];
          to_serve = [];
          requests_sent = 0;
          announcements_sent = 0;
        }
      in
      match Instance.tokens_of instance v with
      | [] -> base
      | tokens ->
          let known =
            List.fold_left
              (fun acc (tok : Token.t) -> IMap.add tok.idx tok acc)
              IMap.empty tokens
          in
          let kmask = Bitset.create cap_k in
          List.iter (fun (tok : Token.t) -> Bitset.set kmask tok.idx) tokens;
          let kcount = List.length tokens in
          {
            base with
            total_known = kcount;
            complete_srcs = Bitset.add rank.(v) base.complete_srcs;
            sources =
              NMap.add v
                {
                  count = Some kcount;
                  known;
                  kmask;
                  kcount;
                  announcers = Bitset.create n;
                }
                NMap.empty;
          })

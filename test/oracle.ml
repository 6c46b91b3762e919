open Dynet.Ops

(* Frozen copies of the Algorithm 1 protocol layer as it stood before
   the O(deg) rewrite: [Gossip.Edge_history], [Gossip.Single_source]
   and [Gossip.Multi_source] with their own state types, sharing only
   the message, token and instance types with the production modules.
   The engine differential cannot see a protocol rewrite (Reference
   runs the same protocol module), so these copies are the oracle the
   protocol differential diffs production against.  Do not optimise
   them: their value is that they are the slow, obvious version. *)

module Payload = Gossip.Payload
module Token = Gossip.Token
module Instance = Gossip.Instance

module Edge_history = struct
  module Bitset = Dynet.Bitset

  type t = {
    born : int array;  (* -1 = absent; else round the presence run started *)
    contrib : Bitset.t;
  }

  type category = New | Idle | Contributive

  let category_equal a b =
    match (a, b) with
    | New, New | Idle, Idle | Contributive, Contributive -> true
    | (New | Idle | Contributive), _ -> false

  let create ~n = { born = Array.make n (-1); contrib = Bitset.create n }

  let refresh t ~round ~neighbors =
    let n = Array.length t.born in
    let born = Array.make n (-1) in
    let contrib = Bitset.create n in
    Array.iter
      (fun w ->
        match t.born.(w) with
        | -1 -> born.(w) <- round
        | b ->
            born.(w) <- b;
            if Bitset.mem t.contrib w then Bitset.set contrib w)
      neighbors;
    { born; contrib }

  let mark_contributed t w =
    if t.born.(w) < 0 || Bitset.mem t.contrib w then t
    else { t with contrib = Bitset.add w t.contrib }

  let categorize t ~round w =
    if t.born.(w) >= round - 1 then New
    else if Bitset.mem t.contrib w then Contributive
    else Idle
end

module Single_source = struct
  module IMap = Map.Make (Int)
  module Bitset = Dynet.Bitset

  type priority = Gossip.Single_source.priority =
    | Paper_priority
    | Reversed_priority
    | No_priority

  type config = Gossip.Single_source.config = {
    priority : priority;
    dedup_pending : bool;
  }

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

  let all_complete ~k states =
    Array.for_all (fun st -> st.kcount >= k) states

  let refresh_edges st ~round ~neighbors =
    { st with edges = Edge_history.refresh st.edges ~round ~neighbors }

  let complete_send st ~neighbors =
    let msgs = ref [] in
    let informed = Bitset.copy st.informed in
    let k = Option.get st.k in
    Array.iter
      (fun w ->
        if not (Bitset.mem informed w) then begin
          Bitset.set informed w;
          msgs := (w, Payload.Completeness { source = st.source; count = k }) :: !msgs
        end
        else
          match List.assoc_opt w st.to_serve with
          | Some idx ->
              let tok = IMap.find idx st.known in
              msgs := (w, Payload.Token_msg tok) :: !msgs
          | None -> ())
      neighbors;
    ({ st with informed; to_serve = []; pending = [] }, List.rev !msgs)

  let incomplete_send st ~round ~neighbors =
    match st.k with
    | None -> ({ st with pending = []; to_serve = [] }, [])
    | Some k ->
        let neighbor_set = Bitset.of_array (Bitset.capacity st.informed) neighbors in
        (* Tokens requested last round whose edge survived will arrive at
           the end of this round; do not re-request them (Algorithm 1's
           redundancy avoidance — ablatable). *)
        let arriving =
          if not st.config.dedup_pending then []
          else
            List.filter_map
              (fun (w, idx) ->
                if Bitset.mem neighbor_set w then Some idx else None)
              st.pending
        in
        (* Eligible edges lead to known-complete neighbors; the paper's
           priority order is new > idle > contributive. *)
        let eligible =
          Array.to_list neighbors
          |> List.filter (fun w -> Bitset.mem st.known_complete w)
          |> List.map (fun w -> (w, Edge_history.categorize st.edges ~round w))
        in
        let in_category c =
          List.filter_map
            (fun (w, cat) -> if Edge_history.category_equal cat c then Some w else None)
            eligible
        in
        let ordered =
          match st.config.priority with
          | Paper_priority ->
              in_category Edge_history.New
              @ in_category Edge_history.Idle
              @ in_category Edge_history.Contributive
          | Reversed_priority ->
              in_category Edge_history.Contributive
              @ in_category Edge_history.Idle
              @ in_category Edge_history.New
          | No_priority -> List.map fst eligible
        in
        (* Walk the missing idxs lazily off the knowledge bitset instead
           of materialising [List.init k |> filter]: the scan advances
           monotonically, so pairing with the ordered edges reproduces
           the eager zip exactly. *)
        let rec next_missing idx =
          let idx = Bitset.next_clear st.kmask idx in
          if idx >= k then None
          else if List.mem idx arriving then next_missing (idx + 1)
          else Some idx
        in
        let rec assign acc idx = function
          | [] -> List.rev acc
          | w :: ws -> (
              match next_missing idx with
              | None -> List.rev acc
              | Some idx -> assign ((w, idx) :: acc) (idx + 1) ws)
        in
        let requests = assign [] 0 ordered in
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
            edges = Edge_history.create ~n;
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
end

module Multi_source = struct
  module IMap = Map.Make (Int)
  module NMap = Dynet.Node_id.Map
  module Bitset = Dynet.Bitset

  (* Everything node v tracks about one discovered source x. *)
  type per_source = {
    count : int option;  (* k_x, once learned *)
    known : Token.t IMap.t;  (* x's tokens held, by idx — kept for serving *)
    kmask : Bitset.t;  (* packed "have idx" bits, capacity = instance k *)
    kcount : int;  (* cached IMap.cardinal known *)
    complete : bool;  (* x ∈ I_v *)
    informed : Bitset.t;  (* R_v(x) *)
    announcers : Bitset.t;  (* S_v(x) *)
  }

  type source_order = Gossip.Multi_source.source_order =
    | Min_source
    | Random_source

  type state = {
    me : Dynet.Node_id.t;
    n : int;
    cap_k : int;  (* instance-wide token count: capacity of the kmasks *)
    source_order : source_order;
    rng : Dynet.Rng.t;
    sources : per_source NMap.t;  (* discovered sources *)
    total_known : int;  (* cached sum of kcount over sources *)
    edges : Edge_history.t;
    pending : (Dynet.Node_id.t * Dynet.Node_id.t * int) list;
        (* (neighbor asked, source, idx) sent last round *)
    to_serve : (Dynet.Node_id.t * Dynet.Node_id.t * int) list;
        (* (asker, source, idx) received last round *)
    requests_sent : int;
    announcements_sent : int;
    ignore_arriving : bool;
        (* The seeded fault of {!multi_source}'s [~bug:true] copy. *)
  }

  let fresh_source ~n ~cap_k =
    {
      count = None;
      known = IMap.empty;
      kmask = Bitset.create cap_k;
      kcount = 0;
      complete = false;
      informed = Bitset.create n;
      announcers = Bitset.create n;
    }

  let source_info st x =
    match NMap.find_opt x st.sources with
    | Some ps -> ps
    | None -> fresh_source ~n:st.n ~cap_k:st.cap_k

  let update_source st x f =
    { st with sources = NMap.add x (f (source_info st x)) st.sources }

  let all_complete ~k states =
    Array.for_all (fun st -> st.total_known >= k) states

  let refresh_edges st ~round ~neighbors =
    { st with edges = Edge_history.refresh st.edges ~round ~neighbors }

  (* Task 1: announce, per neighbor, the minimum own-complete source the
     neighbor has not heard about from us. *)
  let announce_task st ~neighbors =
    let msgs = ref [] in
    let st = ref st in
    Array.iter
      (fun w ->
        let candidate =
          NMap.fold
            (fun x ps best ->
              if ps.complete && not (Bitset.mem ps.informed w) then
                match best with Some b when b <= x -> best | _ -> Some x
              else best)
            !st.sources None
        in
        match candidate with
        | None -> ()
        | Some x ->
            let count = Option.get (source_info !st x).count in
            st :=
              update_source !st x (fun ps ->
                  { ps with informed = Bitset.add w ps.informed });
            st := { !st with announcements_sent = !st.announcements_sent + 1 };
            msgs := (w, Payload.Completeness { source = x; count }) :: !msgs)
      neighbors;
    (!st, List.rev !msgs)

  (* Task 2: serve last round's requests, if the asker is still a
     neighbor and we hold the token. *)
  let serve_task st ~neighbors =
    let neighbor_set = Bitset.of_array st.n neighbors in
    let msgs =
      List.filter_map
        (fun (u, x, idx) ->
          if Bitset.mem neighbor_set u then
            match IMap.find_opt idx (source_info st x).known with
            | Some tok -> Some (u, Payload.Token_msg tok)
            | None -> None
          else None)
        st.to_serve
    in
    ({ st with to_serve = [] }, msgs)

  (* Task 3: the Single-Source request logic for one incomplete source
     that has announced completeness in our neighborhood — the minimum
     one under the paper's rule, a random one under the ablation. *)
  let request_task st ~round ~neighbors =
    let candidates =
      NMap.fold
        (fun x ps acc ->
          if (not ps.complete) && not (Bitset.is_empty ps.announcers) then
            x :: acc
          else acc)
        st.sources []
    in
    let target =
      match (st.source_order, candidates) with
      | _, [] -> None
      | Min_source, xs -> Some (List.fold_left min max_int xs)
      | Random_source, xs -> Some (Dynet.Rng.pick st.rng (Array.of_list xs))
    in
    match target with
    | None -> ({ st with pending = [] }, [])
    | Some x ->
        let ps = source_info st x in
        let k_x = Option.get ps.count in
        let neighbor_set = Bitset.of_array st.n neighbors in
        (* The seeded fault: a copy that forgets last round's requests
           re-requests tokens already in flight. *)
        let arriving =
          if st.ignore_arriving then []
          else
            List.filter_map
              (fun (w, x', idx) ->
                if x' = x && Bitset.mem neighbor_set w then Some idx else None)
              st.pending
        in
        let eligible =
          Array.to_list neighbors
          |> List.filter (fun w -> Bitset.mem ps.announcers w)
          |> List.map (fun w -> (w, Edge_history.categorize st.edges ~round w))
        in
        let in_category c =
          List.filter_map
            (fun (w, cat) -> if Edge_history.category_equal cat c then Some w else None)
            eligible
        in
        let ordered =
          in_category Edge_history.New
          @ in_category Edge_history.Idle
          @ in_category Edge_history.Contributive
        in
        (* Lazy monotone scan over the missing idxs of source x — same
           pairing as the eager [List.init k_x |> filter] + zip. *)
        let rec next_missing idx =
          let idx = Bitset.next_clear ps.kmask idx in
          if idx >= k_x then None
          else if List.mem idx arriving then next_missing (idx + 1)
          else Some idx
        in
        let rec assign acc idx = function
          | [] -> List.rev acc
          | w :: ws -> (
              match next_missing idx with
              | None -> List.rev acc
              | Some idx -> assign ((w, x, idx) :: acc) (idx + 1) ws)
        in
        let requests = assign [] 0 ordered in
        let msgs =
          List.map (fun (w, _, idx) -> (w, Payload.Request { source = x; idx }))
            requests
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
        update_source st x (fun ps -> { ps with known; kmask; kcount; complete })
      in
      {
        st with
        total_known = st.total_known + 1;
        edges = Edge_history.mark_contributed st.edges from;
      }
    end

  module P = struct
    type nonrec state = state
    type msg = Payload.t

    let classify = Payload.classify

    let send st ~round ~neighbors =
      let st = refresh_edges st ~round ~neighbors in
      let st, announce = announce_task st ~neighbors in
      let st, serve = serve_task st ~neighbors in
      let st, request = request_task st ~round ~neighbors in
      (st, announce @ serve @ request)

    let receive st ~round:_ ~neighbors:_ ~inbox =
      List.fold_left
        (fun st (u, msg) ->
          match msg with
          | Payload.Completeness { source = x; count } ->
              update_source st x (fun ps ->
                  (match ps.count with
                  | Some c -> assert (c = count)
                  | None -> ());
                  {
                    ps with
                    count = Some count;
                    announcers = Bitset.add u ps.announcers;
                    complete = ps.complete || ps.kcount = count;
                  })
          | Payload.Token_msg tok -> learn st tok ~from:u
          | Payload.Request { source = x; idx } ->
              (* At most one queued serve per asker: duplicated or delayed
                 requests can land two in one inbox, and serving both next
                 round would put two tokens on the same edge — a bandwidth
                 violation.  Dropped extras are re-requested, the same
                 recovery path as a lost request (single-source gets this
                 for free from its assoc-by-neighbor serve loop). *)
              if
                (source_info st x).complete
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

  let init ?(source_order = Min_source) ?(seed = 0) ~ignore_arriving ~instance
      () =
    let master = Dynet.Rng.make ~seed in
    let n = Instance.n instance in
    let cap_k = Instance.k instance in
    Array.init n (fun v ->
        let base =
          {
            me = v;
            n;
            cap_k;
            source_order;
            rng = Dynet.Rng.split master;
            sources = NMap.empty;
            total_known = 0;
            edges = Edge_history.create ~n;
            pending = [];
            to_serve = [];
            requests_sent = 0;
            announcements_sent = 0;
            ignore_arriving;
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
              sources =
                NMap.add v
                  {
                    count = Some kcount;
                    known;
                    kmask;
                    kcount;
                    complete = true;
                    informed = Bitset.create n;
                    announcers = Bitset.create n;
                  }
                  NMap.empty;
            })
end

let single_source config : (module Fuzz.Diff.UNICAST) =
  (module struct
    type state = Single_source.state

    let protocol = Single_source.protocol
    let init ~instance = Single_source.init ~config ~instance ()
    let all_complete = Single_source.all_complete
  end : Fuzz.Diff.UNICAST)

let multi_source ~bug source_order : (module Fuzz.Diff.UNICAST) =
  (module struct
    type state = Multi_source.state

    let protocol = Multi_source.protocol

    let init ~instance =
      Multi_source.init ~source_order ~ignore_arriving:bug ~instance ()

    let all_complete = Multi_source.all_complete
  end : Fuzz.Diff.UNICAST)

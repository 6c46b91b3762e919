(* Unit tests for tokens, instances, payloads, bounds formulas, and the
   static spanning-tree baseline. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* {2 Token} *)

let test_token_make_and_relabel () =
  let t = Gossip.Token.make ~src:3 ~idx:2 ~uid:7 in
  check Alcotest.int "uid" 7 t.Gossip.Token.uid;
  let r = Gossip.Token.relabel t ~src:5 ~idx:0 in
  check Alcotest.int "uid preserved" 7 r.Gossip.Token.uid;
  check Alcotest.int "src changed" 5 r.Gossip.Token.src;
  check Alcotest.int "idx changed" 0 r.Gossip.Token.idx;
  Alcotest.check_raises "negative idx"
    (Invalid_argument "Token.make: negative idx") (fun () ->
      ignore (Gossip.Token.make ~src:0 ~idx:(-1) ~uid:0))

let test_token_ordering_by_catalog () =
  let a = Gossip.Token.make ~src:1 ~idx:5 ~uid:99 in
  let b = Gossip.Token.make ~src:2 ~idx:0 ~uid:0 in
  check Alcotest.bool "source-major order" true (Gossip.Token.compare a b < 0);
  let c = Gossip.Token.make ~src:1 ~idx:6 ~uid:0 in
  check Alcotest.bool "idx-minor order" true (Gossip.Token.compare a c < 0)

let test_token_set_uids () =
  let s =
    Gossip.Token.Set.of_list
      [
        Gossip.Token.make ~src:0 ~idx:0 ~uid:4;
        Gossip.Token.make ~src:1 ~idx:0 ~uid:2;
        Gossip.Token.make ~src:2 ~idx:0 ~uid:4;
      ]
  in
  check (Alcotest.list Alcotest.int) "sorted distinct uids" [ 2; 4 ]
    (Gossip.Token.uids s)

(* {2 Instance} *)

let test_instance_single_source () =
  let inst = Gossip.Instance.single_source ~n:6 ~k:4 ~source:2 in
  check Alcotest.int "n" 6 (Gossip.Instance.n inst);
  check Alcotest.int "k" 4 (Gossip.Instance.k inst);
  check (Alcotest.list Alcotest.int) "sources" [ 2 ] (Gossip.Instance.sources inst);
  check Alcotest.int "source holds k" 4 (Gossip.Instance.k_of inst 2);
  check Alcotest.int "others hold none" 0 (Gossip.Instance.k_of inst 0);
  check Alcotest.int "all tokens" 4
    (List.length (Gossip.Instance.all_tokens inst))

let test_instance_one_per_node () =
  let inst = Gossip.Instance.one_per_node ~n:5 in
  check Alcotest.int "k = n" 5 (Gossip.Instance.k inst);
  check Alcotest.int "s = n" 5 (Gossip.Instance.source_count inst);
  List.iter
    (fun v ->
      match Gossip.Instance.tokens_of inst v with
      | [ tok ] ->
          Alcotest.check Alcotest.int "uid = node" v tok.Gossip.Token.uid
      | _ -> Alcotest.fail "expected one token")
    (List.init 5 Fun.id)

let test_instance_multi_source_shape () =
  let rng = Dynet.Rng.make ~seed:5 in
  let inst = Gossip.Instance.multi_source ~rng ~n:20 ~k:37 ~s:6 in
  check Alcotest.int "k" 37 (Gossip.Instance.k inst);
  check Alcotest.int "s sources" 6 (Gossip.Instance.source_count inst);
  List.iter
    (fun v ->
      Alcotest.check Alcotest.bool "every source has a token" true
        (Gossip.Instance.k_of inst v >= 1))
    (Gossip.Instance.sources inst)

let test_instance_validation () =
  Alcotest.check_raises "bad s"
    (Invalid_argument "Instance.multi_source: need 1 <= s <= min k n")
    (fun () ->
      ignore
        (Gossip.Instance.multi_source ~rng:(Dynet.Rng.make ~seed:1) ~n:4 ~k:3
           ~s:5));
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Instance.single_source: source out of range") (fun () ->
      ignore (Gossip.Instance.single_source ~n:4 ~k:3 ~source:9));
  (* Duplicate uid rejected. *)
  let bad =
    [|
      [ Gossip.Token.make ~src:0 ~idx:0 ~uid:0 ];
      [ Gossip.Token.make ~src:1 ~idx:0 ~uid:0 ];
    |]
  in
  Alcotest.check_raises "duplicate uid"
    (Invalid_argument "Instance.make: duplicate token uid") (fun () ->
      ignore (Gossip.Instance.make ~n:2 ~assignment:bad))

let prop_multi_source_uids_partition =
  QCheck.Test.make ~name:"instance: uids are exactly 0..k-1" ~count:50
    (QCheck.triple (QCheck.int_range 2 24) (QCheck.int_range 1 40)
       (QCheck.int_range 1 10))
    (fun (n, k, s) ->
      let s = min s (min k n) in
      let rng = Dynet.Rng.make ~seed:(n + k + s) in
      let inst = Gossip.Instance.multi_source ~rng ~n ~k ~s in
      let uids =
        Gossip.Instance.all_tokens inst
        |> List.map (fun t -> t.Gossip.Token.uid)
        |> List.sort Int.compare
      in
      uids = List.init k Fun.id)

(* Every node a source is the n-gossip instance: sampling all n ids
   returns them sorted, so each node gets exactly its own token. *)
let prop_multi_source_all_nodes_is_one_per_node =
  QCheck.Test.make ~name:"instance: multi_source s = k = n is one_per_node"
    ~count:200
    (QCheck.pair (QCheck.int_range 1 64) QCheck.small_nat)
    (fun (n, seed) ->
      let ms =
        Gossip.Instance.multi_source ~rng:(Dynet.Rng.make ~seed) ~n ~k:n ~s:n
      in
      let opn = Gossip.Instance.one_per_node ~n in
      Gossip.Instance.sources ms = Gossip.Instance.sources opn
      && List.for_all
           (fun v ->
             Gossip.Instance.tokens_of ms v = Gossip.Instance.tokens_of opn v)
           (List.init n Fun.id))

(* {2 Payload classification} *)

let test_payload_classify () =
  let tok = Gossip.Token.make ~src:0 ~idx:0 ~uid:0 in
  let open Gossip.Payload in
  check Alcotest.string "token" "token"
    (Engine.Msg_class.to_string (classify (Token_msg tok)));
  check Alcotest.string "completeness" "completeness"
    (Engine.Msg_class.to_string (classify (Completeness { source = 0; count = 1 })));
  check Alcotest.string "request" "request"
    (Engine.Msg_class.to_string (classify (Request { source = 0; idx = 0 })));
  check Alcotest.string "walk" "walk"
    (Engine.Msg_class.to_string (classify (Walk_msg tok)));
  check Alcotest.string "center" "center"
    (Engine.Msg_class.to_string (classify Center_announce))

let test_payload_bits () =
  let n = 256 and k = 1024 in
  let tok = Gossip.Token.make ~src:0 ~idx:0 ~uid:0 in
  let open Gossip.Payload in
  (* id = 8 bits, index = 10 bits, payload = token_bits *)
  check Alcotest.int "token message" (8 + 10 + token_bits)
    (bits ~n ~k (Token_msg tok));
  check Alcotest.int "walk message" (8 + 10 + token_bits)
    (bits ~n ~k (Walk_msg tok));
  check Alcotest.int "announcement" 18
    (bits ~n ~k (Completeness { source = 0; count = 5 }));
  check Alcotest.int "request" 18 (bits ~n ~k (Request { source = 0; idx = 3 }));
  check Alcotest.int "center flag" 1 (bits ~n ~k Center_announce);
  (* All control messages respect the O(log n + log k) budget; only
     token payloads add the constant token size. *)
  check Alcotest.bool "control fits the small-message budget" true
    (bits ~n ~k (Request { source = 0; idx = 0 }) <= 2 * (8 + 10))

let test_payload_equal_and_pp () =
  let tok = Gossip.Token.make ~src:1 ~idx:2 ~uid:3 in
  let open Gossip.Payload in
  check Alcotest.bool "token equal" true (equal (Token_msg tok) (Token_msg tok));
  check Alcotest.bool "token/walk distinct" false
    (equal (Token_msg tok) (Walk_msg tok));
  check Alcotest.bool "announcements compare fields" false
    (equal
       (Completeness { source = 1; count = 2 })
       (Completeness { source = 1; count = 3 }));
  check Alcotest.string "request pp" "request(v1.2)"
    (Format.asprintf "%a" pp (Request { source = 1; idx = 2 }));
  check Alcotest.string "token pp" "token tok(v1.2#3)"
    (Format.asprintf "%a" pp (Token_msg tok))

(* {2 Bounds formulas} *)

let test_bounds_monotonicity () =
  check Alcotest.bool "lb below flooding" true
    (Gossip.Bounds.lb_amortized ~n:64 < Gossip.Bounds.flooding_amortized ~n:64);
  check Alcotest.bool "single-source grows with k" true
    (Gossip.Bounds.single_source_budget ~n:32 ~k:64
    < Gossip.Bounds.single_source_budget ~n:32 ~k:128);
  check Alcotest.bool "multi-source grows with s" true
    (Gossip.Bounds.multi_source_budget ~n:32 ~k:64 ~s:2
    < Gossip.Bounds.multi_source_budget ~n:32 ~k:64 ~s:8);
  check Alcotest.bool "rw amortized decreases in k" true
    (Gossip.Bounds.rw_amortized ~n:128 ~k:128 ()
    > Gossip.Bounds.rw_amortized ~n:128 ~k:1024 ())

let test_bounds_table1_shape () =
  (* The paper's Table 1: amortized bounds strictly improve as k grows,
     and the k >= n regimes are subquadratic.  The ordering is
     asymptotic (row 2 beats row 1 only once n^(1/4) > log^(5/4) n), so
     evaluate the closed forms at a large n; simulations at reachable n
     compare against the formulas, not the ordering. *)
  let n = 1 lsl 30 in
  let rows = Gossip.Bounds.table1 in
  let values = List.map (fun r -> r.Gossip.Bounds.amortized_of_n ~n) rows in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | [ _ ] | [] -> true
  in
  check Alcotest.int "four regimes" 4 (List.length rows);
  check Alcotest.bool "amortized improves with k" true
    (strictly_decreasing values);
  let quadratic = float_of_int (n * n) in
  List.iteri
    (fun i v ->
      if i > 0 then
        Alcotest.check Alcotest.bool "subquadratic for k >= n" true
          (v < quadratic))
    values

let test_bounds_k_of_n_in_range () =
  List.iter
    (fun row ->
      List.iter
        (fun n ->
          let k = row.Gossip.Bounds.k_of_n ~n in
          Alcotest.check Alcotest.bool
            (Printf.sprintf "%s: 1 <= k < n^2 at n=%d" row.Gossip.Bounds.label n)
            true
            (k >= 1 && k < n * n))
        [ 8; 16; 32; 64; 128 ])
    Gossip.Bounds.table1

let test_bounds_rw_params () =
  let n = 256 and k = 1024 in
  let f = Gossip.Bounds.centers_f ~n ~k () in
  check Alcotest.bool "f clamped to [1, n]" true
    (f >= 1. && f <= float_of_int n);
  let gamma = Gossip.Bounds.degree_gamma ~n ~f () in
  check Alcotest.bool "gamma positive" true (gamma > 0.);
  check Alcotest.bool "walk length positive" true
    (Gossip.Bounds.walk_length ~n ~f () > 0.)

let test_bounds_logn_clamps () =
  check (Alcotest.float 1e-9) "logn 1 clamps to 1" 1. (Gossip.Bounds.logn 1);
  check (Alcotest.float 1e-9) "logn 2 clamps to 1" 1. (Gossip.Bounds.logn 2);
  check (Alcotest.float 1e-9) "log2 1024" 10. (Gossip.Bounds.log2 1024.)

(* {2 Static spanning-tree baseline} *)

let test_static_baseline_single_source () =
  let n = 16 and k = 64 in
  let graph = Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed:2) ~n ~p:0.2 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let r = Gossip.Spanning_tree_static.run ~graph ~instance ~root:0 in
  (* Tokens start at the root: upcast is free, downcast is k(n-1). *)
  check Alcotest.int "token messages" (k * (n - 1))
    r.Gossip.Spanning_tree_static.token_messages;
  check Alcotest.int "control = 2m + n - 1"
    ((2 * Dynet.Graph.edge_count graph) + n - 1)
    r.Gossip.Spanning_tree_static.control_messages;
  check Alcotest.bool "amortized close to n for k >> n" true
    (r.Gossip.Spanning_tree_static.amortized < 2. *. float_of_int n)

let test_static_baseline_amortized_optimal_at_large_k () =
  let n = 24 in
  let graph = Dynet.Graph_gen.clique ~n in
  (* Even on a clique (worst construction cost), large k amortizes the
     n^2 away: the intro's O(n^2/k + n) -> O(n). *)
  let small =
    Gossip.Spanning_tree_static.run ~graph
      ~instance:(Gossip.Instance.single_source ~n ~k:2 ~source:0)
      ~root:0
  in
  let large =
    Gossip.Spanning_tree_static.run ~graph
      ~instance:(Gossip.Instance.single_source ~n ~k:(8 * n * n) ~source:0)
      ~root:0
  in
  check Alcotest.bool "small k dominated by construction" true
    (small.Gossip.Spanning_tree_static.amortized > float_of_int (n * n) /. 4.);
  check Alcotest.bool "large k near optimal" true
    (large.Gossip.Spanning_tree_static.amortized < 1.5 *. float_of_int n)

let test_static_baseline_multi_source_upcast () =
  let n = 8 in
  let graph = Dynet.Graph_gen.path ~n in
  let instance = Gossip.Instance.one_per_node ~n in
  let r = Gossip.Spanning_tree_static.run ~graph ~instance ~root:0 in
  (* Upcast on a path rooted at 0: node v is at depth v, total 0+1+...+7;
     downcast: k(n-1). *)
  check Alcotest.int "token messages" (28 + (n * (n - 1)))
    r.Gossip.Spanning_tree_static.token_messages

let test_static_baseline_validation () =
  let instance = Gossip.Instance.one_per_node ~n:4 in
  Alcotest.check_raises "disconnected rejected"
    (Invalid_argument "Spanning_tree_static.run: graph must be connected")
    (fun () ->
      ignore
        (Gossip.Spanning_tree_static.run ~graph:(Dynet.Graph.empty ~n:4)
           ~instance ~root:0))

(* {2 Edge history}

   Against the obvious model: per-neighbour arrays over all n nodes
   ([born] = -1 when absent), updated in place.  Each step is one
   round's row — unchanged, empty, full or a random subset — then a
   few [mark_contributed] calls on present and absent neighbours.
   Every value handed out must read the same after later calls: the
   engines' crash-restart snapshots are shallow copies. *)

let edge_n = 10

let edge_steps =
  QCheck.(
    list_of_size
      Gen.(3 -- 9)
      (triple (int_bound 3)
         (list_of_size (Gen.return edge_n) bool)
         (small_list (int_bound (edge_n - 1)))))

let prop_edge_history_model =
  QCheck.Test.make ~name:"edge history: matches the n-array model"
    ~count:500 edge_steps (fun steps ->
      let module E = Gossip.Edge_history in
      let born = Array.make edge_n (-1) and contrib = Array.make edge_n false in
      let model_cat ~round w =
        if born.(w) >= round - 1 then E.New
        else if contrib.(w) then E.Contributive
        else E.Idle
      in
      (* Everything a history shows: membership of every node, and the
         category of every edge of the row it was refreshed with. *)
      let reads t ~round ~row =
        ( List.init edge_n (E.mem t),
          List.init (Array.length row) (E.categorize_at t ~round) )
      in
      let same_reads (m, c) (m', c') =
        List.equal Bool.equal m m' && List.equal E.category_equal c c'
      in
      let ok = ref true in
      let require b = if not b then ok := false in
      let eh = ref E.empty and prev = ref [||] in
      List.iteri
        (fun i (kind, bits, marks) ->
          let round = i + 1 in
          let row =
            match kind with
            | 0 -> !prev
            | 1 -> [||]
            | 2 -> Array.init edge_n Fun.id
            | _ ->
                Array.of_list
                  (List.filter_map Fun.id
                     (List.mapi (fun w b -> if b then Some w else None) bits))
          in
          let before = !eh and before_row = !prev in
          let seen = reads before ~round ~row:before_row in
          require (Bool.equal (E.same_row before row) (kind = 0 || row = !prev));
          let after = E.refresh before ~round ~neighbors:row in
          require (same_reads (reads before ~round ~row:before_row) seen);
          for w = 0 to edge_n - 1 do
            if Array.mem w row then begin
              if born.(w) < 0 then born.(w) <- round
            end
            else begin
              born.(w) <- -1;
              contrib.(w) <- false
            end
          done;
          eh := after;
          prev := row;
          List.iter
            (fun w ->
              let seen = reads !eh ~round ~row in
              let next = E.mark_contributed !eh w in
              require (same_reads (reads !eh ~round ~row) seen);
              if born.(w) >= 0 then contrib.(w) <- true;
              eh := next)
            marks;
          for w = 0 to edge_n - 1 do
            require (Bool.equal (E.mem !eh w) (born.(w) >= 0))
          done;
          Array.iteri
            (fun j w ->
              require
                (E.category_equal (E.categorize_at !eh ~round j)
                   (model_cat ~round w)))
            row)
        steps;
      !ok)

let suite =
  [
    ("token make/relabel", `Quick, test_token_make_and_relabel);
    ("token catalog ordering", `Quick, test_token_ordering_by_catalog);
    ("token set uids", `Quick, test_token_set_uids);
    ("instance single source", `Quick, test_instance_single_source);
    ("instance one per node", `Quick, test_instance_one_per_node);
    ("instance multi source", `Quick, test_instance_multi_source_shape);
    ("instance validation", `Quick, test_instance_validation);
    qcheck prop_multi_source_uids_partition;
    qcheck prop_multi_source_all_nodes_is_one_per_node;
    qcheck prop_edge_history_model;
    ("payload classification", `Quick, test_payload_classify);
    ("payload bit sizes", `Quick, test_payload_bits);
    ("payload equality and printing", `Quick, test_payload_equal_and_pp);
    ("bounds monotonicity", `Quick, test_bounds_monotonicity);
    ("bounds table-1 shape", `Quick, test_bounds_table1_shape);
    ("bounds table-1 k ranges", `Quick, test_bounds_k_of_n_in_range);
    ("bounds rw parameters", `Quick, test_bounds_rw_params);
    ("bounds log clamps", `Quick, test_bounds_logn_clamps);
    ("static baseline single source", `Quick, test_static_baseline_single_source);
    ("static baseline large-k optimality", `Quick,
     test_static_baseline_amortized_optimal_at_large_k);
    ("static baseline multi-source upcast", `Quick,
     test_static_baseline_multi_source_upcast);
    ("static baseline validation", `Quick, test_static_baseline_validation);
  ]
